"""One retention-count scan per aggregation, with unchanged results.

``Simulation._aggregate_into`` used to scan the cohort's indices twice — once
in ``overlap_distribution`` for the singleton diagnostic, once more in
``opwa_mask_from_updates`` for the mask. Its fold now counts each update as
it arrives and builds the histogram and the mask from those counts.
``two_scan_reference`` composes the list functions the old body called; the
live method must land on the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.opwa as opwa_module
import repro.core.overlap as overlap_module
from repro.compression.base import DenseUpdate, SparseUpdate
from repro.core.aggregation import CohortFold
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask, opwa_mask_from_updates
from repro.core.overlap import narrow_overlap_counts, overlap_distribution
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.robust.aggregators import robust_aggregate
from repro.simtime import make_simulation


def config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=480,
        num_test=160,
        num_clients=12,
        participation=0.5,
        rounds=3,
        batch_size=32,
        lr=0.1,
        seed=11,
        eval_every=2,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def two_scan_reference(sim, params, server_opt, updates, weights, use_opwa):
    """``_aggregate_into`` as it stood: each consumer scans for itself."""
    cfg = sim.config
    arena = AggregationArena(sim.dense_size)
    mask = None
    singleton = None
    sparse = [u for u in updates if isinstance(u, SparseUpdate)]
    if sparse:
        n = len(sparse)
        hist = np.bincount(narrow_overlap_counts(sparse), minlength=n + 1)[1 : n + 1]
        total = int(hist.sum())
        singleton = float(hist[0] / total) if total else 0.0
    if use_opwa and sparse:
        mask = opwa_mask(
            narrow_overlap_counts(sparse), cfg.gamma, required_overlap=cfg.required_overlap
        )
    pseudo_grad = robust_aggregate(
        updates,
        np.asarray(weights),
        aggregator=cfg.aggregator,
        trim_beta=cfg.trim_beta,
        clip_tau=cfg.clip_tau,
        mask=mask,
        arena=arena,
    )
    stepped = server_opt.step(params, pseudo_grad, out=params, scratch=arena.step_scratch)
    return stepped, singleton


def synthetic_cohort(rng, d, n, *, with_dense):
    """``n`` sparse updates at mixed densities over a narrow hot band, so
    indices are retained by 1, a few, and hundreds of clients alike."""
    updates = []
    for i in range(n):
        k = int(rng.integers(1, 40))
        hot = rng.choice(200, size=min(k, 200), replace=False)
        cold = rng.choice(np.arange(200, d), size=3, replace=False)
        idx = np.sort(np.concatenate([hot, cold])).astype(np.int64)
        values = rng.standard_t(3, size=idx.size).astype(np.float32)
        updates.append(SparseUpdate(dense_size=d, indices=idx, values=values))
        if with_dense and i % 100 == 7:
            updates.append(
                DenseUpdate(dense_size=d, values=rng.normal(size=d).astype(np.float32))
            )
    return updates


@pytest.fixture(scope="module")
def sims():
    built = {ro: Simulation(config(required_overlap=ro)) for ro in (1, 3)}
    yield built
    for sim in built.values():
        sim.close()


@pytest.mark.parametrize("use_opwa", [True, False])
@pytest.mark.parametrize("with_dense", [False, True], ids=["sparse", "mixed"])
@pytest.mark.parametrize("cohort", [255, 256, 257])
@pytest.mark.parametrize("required_overlap", [1, 3])
def test_aggregate_into_equals_two_scan_reference(
    sims, required_overlap, cohort, with_dense, use_opwa
):
    sim = sims[required_overlap]
    rng = np.random.default_rng([required_overlap, cohort, with_dense])
    updates = synthetic_cohort(rng, sim.dense_size, cohort, with_dense=with_dense)
    weights = rng.dirichlet(np.ones(len(updates))) * 1.5
    start = rng.normal(size=sim.dense_size).astype(sim.global_params.dtype)

    want, want_singleton = two_scan_reference(
        sim, start.copy(), sim._make_server_opt(), updates, weights, use_opwa
    )
    got, got_singleton = sim._aggregate_into(
        start.copy(), sim._make_server_opt(), updates, weights, use_opwa
    )
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_singleton == want_singleton
    assert 0.0 < got_singleton < 1.0


def test_all_dense_round_scans_nothing(sims, monkeypatch):
    sim = sims[1]
    monkeypatch.setattr(
        overlap_module, "narrow_overlap_counts", lambda updates: pytest.fail("scanned")
    )
    d = sim.dense_size
    updates = [DenseUpdate(dense_size=d, values=np.ones(d, np.float32)) for _ in range(3)]
    _, singleton = sim._aggregate_into(
        np.zeros(d, sim.global_params.dtype), sim._make_server_opt(), updates, np.ones(3) / 3, True
    )
    assert singleton is None


class TestCarriedCounts:
    def test_distribution_carries_the_scan_it_was_built_from(self, rng):
        updates = synthetic_cohort(rng, 1000, 300, with_dense=False)
        dist = overlap_distribution(updates)
        assert dist.per_index.dtype == np.uint16  # 300 updates: past uint8
        assert dist.per_index.tobytes() == narrow_overlap_counts(updates).tobytes()
        for required_overlap in (1, 3):
            fresh = opwa_mask_from_updates(updates, 7.0, required_overlap=required_overlap)
            reused = opwa_mask(dist.per_index, 7.0, required_overlap=required_overlap)
            assert reused.dtype == fresh.dtype and reused.tobytes() == fresh.tobytes()


MODES = {
    "sync": dict(),
    "semisync": dict(
        mode="semisync", deadline_quantile=0.6, late_policy="carryover", rounds=4
    ),
    "async": dict(mode="async", concurrency=4, buffer_size=2, rounds=4),
    "hier": dict(mode="hier", num_edges=3, edge_rounds=2),
}


@pytest.mark.filterwarnings("ignore:algorithm 'bcrs_opwa' under mode='async'")
@pytest.mark.parametrize("mode", MODES)
def test_one_scan_per_aggregation_in_every_protocol(mode, monkeypatch):
    """Every aggregation counts each sparse update's indices exactly once,
    inside its own fold as the update arrives — no list is scanned — and
    builds the mask from those counts."""

    def no_scan(updates):
        pytest.fail("a list of updates was scanned")

    # Both importers of the list kernel, so a scan from either side is seen.
    monkeypatch.setattr(overlap_module, "narrow_overlap_counts", no_scan)
    monkeypatch.setattr(opwa_module, "narrow_overlap_counts", no_scan)

    added: dict[int, int] = {}
    aggregations = []
    real_add, real_finish = CohortFold.add, CohortFold.finish

    def counting_add(self, update, weight=0.0):
        if isinstance(update, SparseUpdate):
            added[id(self)] = added.get(id(self), 0) + update.indices.size
        return real_add(self, update, weight)

    def counting_finish(self, mask=None, **kwargs):
        counted = 0 if self.counts is None else int(self.counts.sum())
        aggregations.append((self.sparse, kwargs.get("gamma") is not None, counted, added.pop(id(self), 0)))
        return real_finish(self, mask, **kwargs)

    monkeypatch.setattr(CohortFold, "add", counting_add)
    monkeypatch.setattr(CohortFold, "finish", counting_finish)

    cfg = config(**MODES[mode])
    with make_simulation(cfg) as sim:
        history = sim.run(cfg.rounds)
    assert len(history.records) == cfg.rounds
    with_sparse = [a for a in aggregations if a[0]]
    assert len(with_sparse) >= cfg.rounds
    assert all(use_opwa for _, use_opwa, _, _ in with_sparse)  # the mask was built every time
    assert all(counted == nnz > 0 for _, _, counted, nnz in with_sparse)
