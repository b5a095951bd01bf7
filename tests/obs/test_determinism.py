"""The observability determinism contract.

Tracing and metrics must never touch the seeded RNG streams or the
simulated timeline: a run with full instrumentation enabled is
bit-identical to the same run with the null observers, on every
execution backend and every protocol mode.
"""

from __future__ import annotations

import pytest

from repro.exec import BACKENDS
from repro.fl.config import ExperimentConfig
from repro.obs import NULL_OBS, MetricsRegistry, Obs, Tracer
from repro.simtime import make_simulation

MODES = ("sync", "semisync", "async", "hier")

#: Worker counts each parallel case runs at. Client ``cid`` trains on worker
#: ``cid % workers``, so each count lays the cohort out differently, and
#: neither layout may show in the result.
WORKERS = (2, 3)

#: Every backend; the serial one ignores the worker count.
CASES = [(b, w) for b in BACKENDS for w in (WORKERS[:1] if b == "serial" else WORKERS)]

#: Deterministic record fields; train/compress_seconds are wall clock.
RECORD_FIELDS = (
    "round_index",
    "selected",
    "train_loss",
    "test_accuracy",
    "times",
    "ratios",
    "weights",
    "singleton_fraction",
    "sim_start",
    "sim_end",
    "mean_staleness",
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=240,
        num_test=120,
        num_clients=6,
        participation=0.5,
        rounds=3,
        batch_size=32,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        seed=3,
        eval_every=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_history(config: ExperimentConfig, obs=None):
    with make_simulation(config, obs=obs) as sim:
        return sim.run()


def assert_histories_identical(a, b) -> None:
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        for field in RECORD_FIELDS:
            assert getattr(ra, field, None) == getattr(rb, field, None), field


class TestTracingDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("backend,workers", CASES)
    def test_traced_run_is_bit_identical(self, backend, workers, mode):
        cfg = small_config(mode=mode, backend=backend, workers=workers)
        plain = run_history(cfg)
        traced = run_history(cfg, obs=Obs(Tracer(), MetricsRegistry()))
        assert_histories_identical(plain, traced)

    @pytest.mark.filterwarnings("ignore:algorithm 'bcrs_opwa' under mode='async'")
    @pytest.mark.parametrize("mode", MODES)
    def test_traced_run_actually_recorded_spans_and_metrics(self, mode):
        obs = Obs(Tracer(), MetricsRegistry())
        run_history(small_config(mode=mode), obs=obs)
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
        run_history(small_config(rounds=1), obs=obs)
        assert obs.metrics.value("tasks_executed") == 3  # 6 clients * 0.5

    def test_null_obs_records_nothing(self):
        assert not NULL_OBS.enabled
        run_history(small_config(rounds=1), obs=NULL_OBS)
        assert NULL_OBS.tracer.spans == ()
