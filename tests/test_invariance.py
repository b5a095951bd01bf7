"""The invariance harness: a seeded run is the same run under every execution knob.

The paper's evidence is a set of run comparisons, and a comparison means
something only if the run it compares does not depend on how it was
executed. For every config a ``hypothesis`` strategy draws over the fields
that select what a run does (mode, algorithm, compressor, aggregator,
faults, contention, links, adversary, population regime, hierarchy), one
short seeded run's trace — the golden format of :mod:`repro.testing.goldens`
plus a digest of the final global parameters — must be identical under:

- serial execution, the reference;
- serial execution traced (an :class:`~repro.obs.Obs` with a tracer and a
  metrics registry);
- the process backend at 2 workers, and at 3 workers traced (client ``cid``
  trains on worker ``cid % workers``, so each count lays the cohort out
  differently);
- a :class:`~repro.scenarios.RunStore` save and load of the serial history,
  wall-clock fields and their types included.

Three knobs with a neutral value are identities checked on the same draws:
``bcrs_opwa`` at ``gamma=1`` is ``bcrs``, ``norm_clip`` at ``clip_tau=1e30``
is ``mean``, and ``hier`` with one edge, one sub-round and a free backhaul is
``sync`` (on every sync config without client-uplink faults, which the edge
tier does not model; ``edge_breakdown``, the one record field ``hier`` adds,
is left out of the comparison). The drawn test runs once per (mode,
aggregator) pair, so every pair runs on the process backend. ``FEATURES``
names the features of the pinned round paths
(``tests/fl/test_round_paths_pinned.py``) that the draws may not reach; each
runs as one test per knob. A failure names the execution knob that moved the
trace and the first field it moved.

This module also holds the suite's one small seeded config and its one
full-trace comparison, which the protocol tests import.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.compression.registry import available_compressors
from repro.fl.config import (
    ADVERSARIES,
    AGGREGATORS,
    ALGORITHMS,
    EDGE_ASSIGNMENTS,
    EDGE_SYNC_MODES,
    LATE_POLICIES,
    MODES,
    ExperimentConfig,
)
from repro.io.history_io import history_to_dict
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.scenarios import RunStore, ScenarioSpec
from repro.simtime import make_simulation
from repro.testing.goldens import sim_trace

#: Worker counts the process legs run at.
WORKERS = (2, 3)

#: A planning algorithm under async degrades to uniform Top-K and says so;
#: that notice is the one warning a drawn run may raise unheard.
ASYNC_DEGRADES = r"algorithm '\w+' under mode='async' runs uniform"


def small_config(**overrides) -> ExperimentConfig:
    """Six clients, three a round, three rounds of BCRS+OPWA at CR 0.1, seed 3."""
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
    )
    return ExperimentConfig(**{**base, **overrides})


def run_sim(config, obs=None):
    """Run ``config`` to the end: the closed simulation and its history."""
    with make_simulation(config, obs=obs) as sim:
        history = sim.run()
    return sim, history


def trace(sim) -> dict:
    """Run ``sim`` to the end and close it: its golden-format trace
    (:func:`repro.testing.goldens.sim_trace`) plus a digest of the final
    global parameters."""
    return {**sim_trace(sim), "params": hashlib.sha256(sim.global_params.tobytes()).hexdigest()}


def _canonical(obj) -> str:
    # JSON text, so NaN equals NaN and -0.0 differs from 0.0: bit identity.
    return json.dumps(obj, sort_keys=True)


def _first_difference(want, got, path: str) -> str:
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        key = next(k for k in want if _canonical(want[k]) != _canonical(got[k]))
        return _first_difference(want[key], got[key], f"{path}.{key}")
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        i = next(i for i, (w, g) in enumerate(zip(want, got)) if _canonical(w) != _canonical(g))
        return _first_difference(want[i], got[i], f"{path}[{i}]")
    return f"{path}: {want!r} != {got!r}"


def assert_same_trace(want: dict, got: dict, knob: str) -> None:
    """``got`` is ``want`` bit for bit; a failure names ``knob`` and the
    first field that differs."""
    if _canonical(want) != _canonical(got):
        where = _first_difference(want, got, "trace")
        raise AssertionError(f"{knob} moved the seeded run: {where}")


@st.composite
def selecting_fields(draw) -> dict:
    """Overrides of :func:`small_config` over the fields that select what a
    run does; a knob outside its mode (a hier knob in sync, say) is inert.
    Every first choice is the simplest draw: error-feedback Top-K, whose
    residuals carry state from round to round, on the defaults."""

    def pick(options):
        return draw(st.sampled_from(options))

    return dict(
        algorithm=pick(sorted(ALGORITHMS, key=lambda a: a != "eftopk")),
        compressor=pick((None, *available_compressors())),
        clip_tau=pick((0.5, 5.0)),
        trim_beta=pick((0.1, 0.4)),
        drop_prob=pick((0.0, 0.2)),
        truncate_prob=pick((0.0, 0.3)),
        edge_crash_prob=pick((0.0, 0.4)),
        contention=pick(("none", "fair")),
        server_ingress_mbps=pick((None, 0.8, 4.0)),
        include_downlink=draw(st.booleans()),
        time_varying_links=draw(st.booleans()),
        late_policy=pick(LATE_POLICIES),
        adversary=pick((None, *ADVERSARIES)),
        adversary_fraction=pick((0.2, 0.5)),
        virtual_shards=draw(st.booleans()),
        num_edges=pick((1, 2, 3)),
        edge_rounds=pick((1, 2)),
        edge_sync=pick(EDGE_SYNC_MODES),
        edge_assignment=pick(EDGE_ASSIGNMENTS),
        backhaul_bandwidth_mbps=pick((None, 20.0)),
    )


def _traced() -> Obs:
    return Obs(Tracer(), MetricsRegistry())


def _rerun(respell, traced=False):
    """A knob that runs ``respell(config)`` afresh, traced or not."""

    def rerun(config, reference, tmp_path_factory):
        obs = _traced() if traced else None
        return reference[0], trace(make_simulation(respell(config), obs=obs))

    return rerun


def _process(workers: int):
    return lambda c: c.with_(backend="process", workers=workers)


def _stored(config, reference, tmp_path_factory):
    # The whole history, wall-clock fields and their types included.
    _, history = reference
    store = RunStore(tmp_path_factory.mktemp("store"))
    spec = ScenarioSpec.from_config(config, name="run")
    store.save(spec, history)
    return history_to_dict(history), history_to_dict(store.load(spec))


def _always(config) -> bool:
    return True


def _without_edges(t: dict) -> dict:
    records = [
        {k: v for k, v in r.items() if k != "edge_breakdown"} for r in t["history"]["records"]
    ]
    return {**t, "history": {**t["history"], "records": records}}


def _one_edge(config, reference, tmp_path_factory):
    # Drawn sync configs carry inert hier values: force the neutral ones.
    hier = config.with_(
        mode="hier", num_edges=1, edge_rounds=1, edge_sync="sync",
        backhaul_bandwidth_mbps=None, edge_crash_prob=0.0,
    )
    return _without_edges(reference[0]), _without_edges(trace(make_simulation(hier)))


two, three = WORKERS

#: Every other spelling of a seeded run: id → (what a failure calls it, the
#: configs it applies to, how it gets what it compares — the serial run's
#: trace or history and its own — from the config and the serial run's
#: trace and history). The last three are neutral values.
KNOBS = {
    "traced": ("tracing", _always, _rerun(lambda c: c, traced=True)),
    f"process-{two}": (f"process backend, {two} workers", _always, _rerun(_process(two))),
    f"process-{three}-traced": (
        f"process backend, {three} workers, traced",
        _always,
        _rerun(_process(three), traced=True),
    ),
    "store": ("a RunStore save and load", _always, _stored),
    "bcrs_opwa-gamma1": (
        "identity bcrs_opwa at gamma=1 as bcrs",
        lambda c: c.algorithm == "bcrs",
        _rerun(lambda c: c.with_(algorithm="bcrs_opwa", gamma=1.0)),
    ),
    "norm_clip-1e30": (
        "identity norm_clip at clip_tau=1e30 as mean",
        lambda c: c.aggregator == "mean",
        _rerun(lambda c: c.with_(aggregator="norm_clip", clip_tau=1e30)),
    ),
    "hier-1-edge": (
        "identity hier with one free edge and one sub-round as sync",
        lambda c: c.mode == "sync" and c.drop_prob == 0.0 and c.truncate_prob == 0.0,
        _one_edge,
    ),
}


@functools.lru_cache(maxsize=1)
def _reference(config) -> tuple[dict, object]:
    # A feature's knobs run one after another: its serial run is made once.
    sim = make_simulation(config)
    return trace(sim), sim.history


def assert_invariant(config, knob: str, tmp_path_factory) -> None:
    """``knob`` leaves the serial run of ``config`` bit for bit as it is."""
    name, _, rerun = KNOBS[knob]
    assert_same_trace(*rerun(config, _reference(config), tmp_path_factory), name)


@pytest.mark.filterwarnings(f"ignore:{ASYNC_DEGRADES}:UserWarning")
@pytest.mark.parametrize("aggregator", AGGREGATORS)
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(fields=selecting_fields())
def test_a_seeded_run_is_the_same_run_under_every_execution_knob(
    mode, aggregator, fields, tmp_path_factory
):
    try:
        config = small_config(mode=mode, aggregator=aggregator, **fields)
    except ValueError:
        reject()
    for knob, (_, applies, _) in KNOBS.items():
        if applies(config):
            assert_invariant(config, knob, tmp_path_factory)


_LOSSY = dict(drop_prob=0.2, truncate_prob=0.3)
_FAIR = dict(contention="fair", server_ingress_mbps=0.8)
_SHARED = dict(include_downlink=True, contention="fair", server_ingress_mbps=4.0)
_HIER = dict(mode="hier", num_edges=3, edge_rounds=2)
_BACKHAUL = dict(backhaul_bandwidth_mbps=20.0, backhaul_latency_s=0.05, backhaul_heterogeneity=0.3)
_EXTRAS = dict(server_optimizer="adam", server_step=0.01, volume_override_bits=4e8)

#: Every feature an earlier backend test or pinned round path ran on the
#: process backend, whatever the draws reach: error feedback under faults and
#: fair ingress; dense FedAvg, lossy and clean (the clean one as one free
#: edge too); plain BCRS, with link drift; BCRS+OPWA with
#: drift, shared ingress and downlink, a server optimizer with moments,
#: paper-scale volume pricing and a byzantine minority; a quantiser beneath
#: Top-K, over virtual shards; Top-K under a trimmed mean, with a server
#: optimizer with moments; a Top-K plan that drops stragglers; fixed
#: semisync deadlines under both late policies; hierarchy with edge
#: deadlines, costly backhaul and edge crashes.
FEATURES = {
    "sync-eftopk-lossy-fair": dict(mode="sync", aggregator="mean", algorithm="eftopk", **_LOSSY, **_FAIR),
    "sync-fedavg-lossy": dict(mode="sync", aggregator="mean", algorithm="fedavg", **_LOSSY),
    "sync-fedavg-dense": dict(mode="sync", aggregator="mean", algorithm="fedavg", compression_ratio=1.0),
    "sync-bcrs_opwa-all": dict(
        mode="sync", aggregator="trimmed_mean", trim_beta=0.2, adversary="sign_flip",
        adversary_fraction=0.25, time_varying_links=True, **_LOSSY, **_SHARED, **_EXTRAS,
    ),
    "sync-bcrs-clip": dict(mode="sync", aggregator="norm_clip", clip_tau=0.5, algorithm="bcrs"),
    "sync-topk-qsgd8-virtual": dict(
        mode="sync", aggregator="mean", algorithm="topk", compressor="qsgd8", virtual_shards=True
    ),
    "sync-topk-trimmed-adam": dict(
        mode="sync", aggregator="trimmed_mean", trim_beta=0.2, algorithm="topk",
        server_optimizer="adam", server_step=0.01,
    ),
    "sync-deadline_topk-qsgd8-downlink": dict(
        mode="sync", aggregator="median", algorithm="deadline_topk", compressor="qsgd8",
        include_downlink=True,
    ),
    "semisync-eftopk-lossy-fair-fixed": dict(
        mode="semisync", aggregator="mean", algorithm="eftopk", deadline_s=0.7, **_LOSSY, **_FAIR
    ),
    "semisync-bcrs_opwa-drift-shared": dict(
        mode="semisync", aggregator="trimmed_mean", trim_beta=0.2, time_varying_links=True,
        **_SHARED,
    ),
    "semisync-bcrs-drift": dict(
        mode="semisync", aggregator="mean", algorithm="bcrs", time_varying_links=True
    ),
    "semisync-topk-qsgd8-drop-fixed-volume": dict(
        mode="semisync", aggregator="mean", algorithm="topk", compressor="qsgd8", deadline_s=150.0,
        late_policy="drop", contention="fair", server_ingress_mbps=20.0, volume_override_bits=4e8,
    ),
    "semisync-topk-trimmed": dict(
        mode="semisync", aggregator="trimmed_mean", trim_beta=0.2, algorithm="topk"
    ),
    "semisync-deadline_topk-scaled": dict(
        mode="semisync", aggregator="median", algorithm="deadline_topk", adversary="scaled",
        adversary_fraction=0.2,
    ),
    "async-eftopk-lossy-fair": dict(mode="async", aggregator="mean", algorithm="eftopk", **_LOSSY, **_FAIR),
    "async-bcrs_opwa-adam": dict(mode="async", aggregator="mean", server_optimizer="adam", server_step=0.01),
    "async-bcrs-virtual": dict(mode="async", aggregator="median", algorithm="bcrs", virtual_shards=True),
    "async-topk-sign_flip-volume-shared": dict(
        mode="async", aggregator="trimmed_mean", trim_beta=0.2, algorithm="topk",
        adversary="sign_flip", adversary_fraction=0.25, truncate_prob=0.4,
        volume_override_bits=4e8, **_SHARED,
    ),
    "async-topk-qsgd8-truncate": dict(
        mode="async", aggregator="mean", algorithm="topk", compressor="qsgd8", truncate_prob=0.4
    ),
    "hier-eftopk-backhaul-fair": dict(aggregator="mean", algorithm="eftopk", **_HIER, **_BACKHAUL, **_FAIR),
    "hier-bcrs_opwa-all": dict(
        aggregator="trimmed_mean", trim_beta=0.2, edge_crash_prob=0.4, time_varying_links=True,
        **_HIER, **_BACKHAUL, **_SHARED, **_EXTRAS,
    ),
    "hier-bcrs-clip-volume": dict(
        aggregator="norm_clip", clip_tau=0.5, algorithm="bcrs", volume_override_bits=4e8, **_HIER
    ),
    "hier-topk-trimmed-adam": dict(
        aggregator="trimmed_mean", trim_beta=0.2, algorithm="topk", server_optimizer="adam",
        server_step=0.01, **_HIER,
    ),
    "hier-topk-qsgd8": dict(aggregator="mean", algorithm="topk", compressor="qsgd8", **_HIER),
    "hier-deadline_topk-qsgd8-edge-semisync": dict(
        aggregator="mean", algorithm="deadline_topk", compressor="qsgd8", edge_sync="semisync",
        **_HIER,
    ),
}


@pytest.mark.filterwarnings(f"ignore:{ASYNC_DEGRADES}:UserWarning")
@pytest.mark.parametrize(
    ("feature", "knob"),
    [
        pytest.param(feature, knob, id=f"{feature}-{knob}")
        for feature, fields in FEATURES.items()
        for knob, (_, applies, _) in KNOBS.items()
        if applies(small_config(**fields))
    ],
)
def test_each_feature_is_the_same_run_under_each_execution_knob(feature, knob, tmp_path_factory):
    assert_invariant(small_config(**FEATURES[feature]), knob, tmp_path_factory)


def test_an_empty_record_sums_its_wall_clock_from_float_zero(tmp_path_factory):
    """A round no upload reached records ``0.0`` seconds, not the int ``0``,
    and a store returns it as it was saved."""
    config = small_config(mode="semisync", algorithm="topk", drop_prob=0.5, rounds=6, seed=1)
    _, history = _reference(config)
    empty = [r for r in history.records if not r.ratios]
    assert empty
    assert all(type(r.train_seconds) is type(r.compress_seconds) is float for r in empty)
    assert_invariant(config, "store", tmp_path_factory)
