"""What an instrumented run records.

Tracing and metrics must never touch the seeded RNG streams or the
simulated timeline: that a fully traced run is bit-identical to an untraced
one, on every backend and in every protocol mode, is checked for drawn
configs by the invariance harness, ``tests/test_invariance.py``. The
tests here check that the instrumentation records what it should.
"""

from __future__ import annotations

import pytest

from repro.fl.config import MODES
from repro.obs import NULL_OBS, MetricsRegistry, Obs, Tracer
from tests.test_invariance import run_sim, small_config


class TestInstrumentedRun:
    @pytest.mark.filterwarnings("ignore:algorithm 'bcrs_opwa' under mode='async'")
    @pytest.mark.parametrize("mode", MODES)
    def test_traced_run_actually_recorded_spans_and_metrics(self, mode):
        obs = Obs(Tracer(), MetricsRegistry())
        run_sim(small_config(mode=mode), obs=obs)
        names = {s.name for s in obs.tracer.spans}
        everywhere = {
            "round", "exec.round", "client.train", "client.compress",
            "hydrate", "aggregate", "evaluate",
        }
        assert everywhere <= names
        # One code path emits each stage's span, so a span is there exactly
        # where its stage runs: the flat sampler in sync only, algorithm.plan
        # everywhere but async, _price_round in the two lock-step protocols.
        assert ("sample" in names) == (mode == "sync")
        assert ("plan" in names) == (mode != "async")
        assert ("transport.price" in names) == (mode in ("sync", "hier"))
        assert obs.metrics.value("rounds_completed") == 3
        assert obs.metrics.value("rounds_per_second") > 0
        # Every task stream is driven to its end, where the count is taken.
        trained = sum(s.name == "client.train" for s in obs.tracer.spans)
        assert obs.metrics.value("tasks_executed") == trained > 0
        assert [snap["round"] for snap in obs.metrics.snapshots] == [0, 1, 2]
        assert all("rounds_per_second" in snap["values"] for snap in obs.metrics.snapshots)

    def test_metrics_only_obs_is_enabled(self):
        obs = Obs(metrics=MetricsRegistry())
        assert obs.enabled
        run_sim(small_config(rounds=1), obs=obs)
        assert obs.metrics.value("tasks_executed") == 3  # 6 clients * 0.5

    def test_null_obs_records_nothing(self):
        assert not NULL_OBS.enabled
        run_sim(small_config(rounds=1), obs=NULL_OBS)
        assert NULL_OBS.tracer.spans == ()
