"""One mask contract for every aggregation rule: ``agg(u, mask=m) == m ⊙ agg(u)``.

The OPWA mask (Algorithm 3) scales the aggregated pseudo-gradient once, under
the weighted mean and norm clipping as under the order statistics — byte for
byte, with and without an arena, over sparse, dense and mixed cohorts and
masks of any threshold ``D``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask_from_updates
from repro.robust.aggregators import robust_aggregate

RULES = {
    "mean": {},
    "norm_clip": {"clip_tau": 0.5},  # small enough to clip most updates
    "median": {},
    "trimmed_mean": {"trim_beta": 0.2},
}


def cohort(seed, d=64, n=7, dense=0):
    rng = np.random.default_rng(seed)
    updates = []
    for i in range(n):
        if i < dense:
            updates.append(DenseUpdate(dense_size=d, values=rng.normal(size=d).astype(np.float32)))
            continue
        k = int(rng.integers(1, d // 2))
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        updates.append(SparseUpdate(dense_size=d, indices=idx, values=rng.standard_t(3, size=k).astype(np.float32)))
    return updates, rng.dirichlet(np.ones(n))


@pytest.mark.parametrize("arena", [False, True], ids=["allocating", "arena"])
@pytest.mark.parametrize("required_overlap", [1, 3])
@pytest.mark.parametrize("dense", [0, 2], ids=["sparse", "mixed"])
@pytest.mark.parametrize("rule", RULES)
def test_mask_scales_the_aggregate(rule, dense, required_overlap, arena):
    updates, weights = cohort(seed=len(rule) * 10 + dense + required_overlap, dense=dense)
    sparse = [u for u in updates if isinstance(u, SparseUpdate)]
    mask = opwa_mask_from_updates(sparse, 7.3, required_overlap=required_overlap)
    assert (mask != 1).any()
    d = updates[0].dense_size

    def agg(m):
        buffers = AggregationArena(d) if arena else None
        return robust_aggregate(updates, weights, aggregator=rule, mask=m, arena=buffers, **RULES[rule])

    got = agg(mask)
    want = agg(None) * mask
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", RULES)
def test_a_mask_of_another_width_is_refused(rule):
    updates, weights = cohort(seed=1)
    with pytest.raises(ValueError, match="mask shape"):
        robust_aggregate(updates, weights, aggregator=rule, mask=np.ones(63, np.float32), **RULES[rule])
