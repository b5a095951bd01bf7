"""Fault fates are pure functions of the seed — nothing else may leak in.

Backend bit-identity for adversarial/faulty traces is pinned by the golden
suite (``tests/goldens``); this file covers the remaining leak surfaces:
repeated runs, sweep parallelism (a faulty cell must not see how many
sibling cells run beside it), and hierarchical edge-crash recovery.
"""

from __future__ import annotations

import pytest

from repro.fl.config import ExperimentConfig
from repro.io.history_io import history_to_dict
from repro.scenarios import run_grid
from repro.simtime import make_simulation
from repro.testing.goldens import run_trace


def cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=240,
        num_test=120,
        num_clients=8,
        participation=0.5,
        rounds=3,
        batch_size=32,
        lr=0.1,
        seed=7,
        eval_every=1,
        algorithm="topk",
        compression_ratio=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def stripped(history) -> dict:
    d = history_to_dict(history)
    for rec in d["records"]:
        rec["train_seconds"] = rec["compress_seconds"] = 0.0
    return d


@pytest.mark.parametrize(
    "overrides",
    [
        dict(drop_prob=0.2, truncate_prob=0.3),
        dict(
            mode="async",
            concurrency=3,
            buffer_size=2,
            drop_prob=0.25,
            adversary="sign_flip",
            adversary_fraction=0.25,
        ),
        dict(
            algorithm="bcrs_opwa",
            mode="hier",
            num_edges=3,
            edge_rounds=1,
            edge_crash_prob=0.4,
        ),
    ],
    ids=["sync-faults", "async-faults-adversary", "hier-crash"],
)
def test_rerun_is_bitwise_identical(overrides):
    """Same config, fresh simulation: identical trace, spans included."""
    assert run_trace(cfg(**overrides)) == run_trace(cfg(**overrides))


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_sweep_parallelism_is_invisible_to_faulty_cells(executor):
    """A robustness grid run at parallel=3 matches the sequential sweep
    cell-for-cell, bit-for-bit."""
    axes = {
        "adversary_fraction": [0.0, 0.25],
        "drop_prob": [0.0, 0.3],
    }
    base = cfg(adversary="sign_flip")
    serial = run_grid(base, axes, parallel=1)
    parallel = run_grid(base, axes, parallel=3, executor=executor)
    assert len(serial) == len(parallel) == 4
    for (sa, ha), (sb, hb) in zip(serial.cells, parallel.cells):
        assert sa == sb
        assert stripped(ha) == stripped(hb)


def test_hier_crash_recovery_reweights_survivors():
    """Crashed edges vanish from the cloud merge; the cloud still steps on
    the survivors, so the run differs from the crash-free one but keeps
    learning — and every round reports its surviving cohort."""
    crashy = cfg(
        algorithm="bcrs_opwa",
        mode="hier",
        num_edges=3,
        edge_rounds=1,
        edge_crash_prob=0.4,
        rounds=4,
    )
    calm = crashy.with_(edge_crash_prob=0.0)
    with make_simulation(crashy) as sim:
        h_crash = sim.run()
    with make_simulation(calm) as sim:
        h_calm = sim.run()
    assert stripped(h_crash) != stripped(h_calm)
    assert all(r.num_participants is not None for r in h_crash.records)
    assert all(r.num_participants is None for r in h_calm.records)
    accs = [r.test_accuracy for r in h_crash.records if r.test_accuracy is not None]
    assert max(accs) > accs[0]  # survivors still move the cloud model
