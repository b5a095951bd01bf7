"""Call budget of the dispatch loop: what is constant for a run is computed
once, not once per dispatch.

Counting monkeypatches over a 6-round synchronous run with fair-share
contention (the pricing path that needs each link twice: Eq. 4 and the
ingress flow). Counts, not timings — they repeat exactly.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import repro.exec.base as exec_base
import repro.fl.simulation as fl_simulation
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.network.cost import LinkSpec

ROUNDS = 6


def config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="synth-cifar10",
        model="mlp",
        num_train=320,
        num_test=64,
        num_clients=8,
        participation=0.5,
        rounds=ROUNDS,
        batch_size=16,
        lr=0.05,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        mode="sync",
        contention="fair",
        server_ingress_mbps=4.0,
        eval_every=2,
        seed=9,
    )


def counted_run(monkeypatch) -> dict:
    """One seeded run with every counter installed; counts at the end."""
    counts = dict.fromkeys(("link", "price", "getpid", "contexts"), 0)

    def counting(key, inner):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(LinkSpec, "__post_init__", counting("link", LinkSpec.__post_init__))
        patch.setattr(
            fl_simulation, "pipeline_times", counting("price", fl_simulation.pipeline_times)
        )
        patch.setattr(
            exec_base,
            "os",
            SimpleNamespace(getpid=counting("getpid", os.getpid), cpu_count=os.cpu_count),
        )
        patch.setattr(
            exec_base.WorkerContext,
            "__init__",
            counting("contexts", exec_base.WorkerContext.__init__),
        )
        with Simulation(config()) as sim:
            built = dict(counts)  # construction draws links for nothing we count here
            sim.run()
            total = {k: counts[k] - built[k] for k in counts}
            contexts = counts["contexts"]
            records = sim.history.records
    return {
        "total": total,
        "contexts": contexts,
        # a synchronous round dispatches its whole cohort, once
        "dispatches": sum(len(r.selected) for r in records),
    }


def test_dispatch_and_step_budget(monkeypatch):
    run = counted_run(monkeypatch)
    total = run["total"]
    dispatches = cohort_rounds = run["dispatches"]
    assert dispatches == ROUNDS * 4

    # One link object per cohort member per round feeds the plan, Eq. 4 and
    # the ingress flow; the dispatch itself builds none (the bound leaves it
    # one, which event-driven dispatch outside a cohort uses).
    assert total["link"] <= dispatches + cohort_rounds
    assert total["link"] == cohort_rounds
    # One pricing call per dispatch: download, train and Eq. 4 together.
    assert total["price"] == dispatches

    # One pid lookup per worker context, however many tasks it executes.
    assert run["contexts"] >= 1
    assert 0 < total["getpid"] <= run["contexts"]


def test_budget_repeats_exactly(monkeypatch):
    assert counted_run(monkeypatch) == counted_run(monkeypatch)
