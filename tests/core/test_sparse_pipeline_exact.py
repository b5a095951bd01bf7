"""Differential exactness of the sparse-update pipeline.

Top-K selection, the overlap counts, the OPWA mask and the weighted sparse sum
were rewritten for speed at d = 1M (threshold selection instead of an index
sort, narrow per-update counters instead of a ``bincount`` over concatenated
indices, one ``np.where``, per-update ``np.add.at`` instead of pack buffers)
under the promise that no seeded history changes. This file freezes the four
kernels as they were before that rewrite — including the pack-buffer arena
branch of the sum — and requires the live ones to reproduce them byte for
byte, sign bits included. The reference is the spec: do not "modernise" it.

One later change is deliberate: the OPWA mask now scales the weighted sum once
(``M ⊙ Σ w_i·u_i``, the contract every aggregation rule shares) instead of each
update. At Algorithm 3's ``D = 1`` over sparse updates the two are the same
bytes, and those cases stay against the frozen per-update reference (a
``hypothesis`` property below covers the edge values). At ``D ≥ 2``, or with
dense updates under a mask, the reference is the frozen *unmasked* sum times
the mask.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.compression.ef import ErrorFeedback
from repro.compression.sparsifiers import TopK, k_from_ratio
from repro.core.aggregation import weighted_sparse_sum
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask, opwa_mask_from_updates
from repro.core.overlap import narrow_overlap_counts, overlap_counts, overlap_distribution
from repro.robust.aggregators import robust_aggregate

# --------------------------------------------------------------------------
# The frozen reference kernels.


class RefTopK:
    name = "topk"
    fixed_k = True

    def compress(self, update, ratio, out=None):
        update = np.ascontiguousarray(update, dtype=np.float32)
        d = update.shape[0]
        k = k_from_ratio(d, ratio)
        if k >= d:
            idx = np.arange(d, dtype=np.int64)
        else:
            idx = np.argpartition(np.abs(update), d - k)[d - k :]
            idx = np.sort(idx).astype(np.int64)
        if out is None:
            return SparseUpdate(dense_size=d, indices=idx, values=update[idx])
        idx_buf, val_buf = out
        idx_buf[...] = idx
        np.take(update, idx_buf, out=val_buf)
        return SparseUpdate(dense_size=d, indices=idx_buf, values=val_buf)


def ref_overlap_counts(updates):
    d = updates[0].dense_size
    all_indices = np.concatenate([u.indices for u in updates])
    return np.bincount(all_indices, minlength=d).astype(np.int64)


def ref_overlap_hist(updates):
    counts = ref_overlap_counts(updates)
    n = len(updates)
    retained = counts[counts > 0]
    return np.bincount(retained, minlength=n + 1)[1 : n + 1].astype(np.int64)


def ref_opwa_mask(counts, gamma, required_overlap=1, dtype=np.float32):
    counts = np.asarray(counts)
    mask = np.ones(counts.shape[0], dtype=dtype)
    low = (counts >= 1) & (counts <= required_overlap)
    mask[low] = gamma
    return mask


class RefPackArena:
    """The pack/gather buffers the arena branch of the old sum ran on."""

    def __init__(self, dense_size):
        self._pack_idx = np.empty(0, dtype=np.int64)
        self._pack_val = np.empty(0, dtype=np.float64)
        self._gather = np.empty(0, dtype=np.float32)
        self._acc = np.zeros(dense_size, dtype=np.float64)

    def pack(self, nnz):
        if self._pack_idx.size < nnz:
            self._pack_idx = np.empty(nnz, dtype=np.int64)
            self._pack_val = np.empty(nnz, dtype=np.float64)
        return self._pack_idx[:nnz], self._pack_val[:nnz]

    def gather(self, nnz, dtype=np.float32):
        if self._gather.size < nnz or self._gather.dtype != np.dtype(dtype):
            self._gather = np.empty(nnz, dtype=dtype)
        return self._gather[:nnz]

    def accumulator(self):
        self._acc[...] = 0.0
        return self._acc


def ref_weighted_sparse_sum(updates, weights, *, mask=None, out=None, arena=None):
    weights = np.asarray(weights, dtype=np.float64)
    d = updates[0].dense_size
    if out is None:
        out = arena.accumulator() if arena is not None else np.zeros(d, dtype=np.float64)
    else:
        out[...] = 0.0

    sparse = [(w, u) for w, u in zip(weights, updates) if isinstance(u, SparseUpdate)]
    if sparse:
        if arena is not None:
            total = sum(u.indices.size for _, u in sparse)
            all_indices, all_values = arena.pack(total)
            offset = 0
            for w, u in sparse:
                n = u.indices.size
                all_indices[offset : offset + n] = u.indices
                block = all_values[offset : offset + n]
                np.copyto(block, u.values)
                block *= w
                offset += n
            if mask is not None and total:
                gathered = arena.gather(total, mask.dtype)
                np.take(mask, all_indices, out=gathered)
                all_values *= gathered
        else:
            all_indices = np.concatenate([u.indices for _, u in sparse])
            all_values = np.concatenate(
                [w * u.values.astype(np.float64) for w, u in sparse]
            )
            if mask is not None:
                all_values *= mask[all_indices]
        if all_indices.size:
            out += np.bincount(all_indices, weights=all_values, minlength=d)

    for w, u in zip(weights, updates):
        if not isinstance(u, SparseUpdate):
            dense = u.to_dense().astype(np.float64)
            if mask is not None:
                dense *= mask
            out += w * dense
    return out


# --------------------------------------------------------------------------
# Helpers.

DIMS = [1, 7, 33_610, 200_000]
RATIOS = ["1/d", 0.01, 0.1, 0.5, 0.9, "(d-1)/d", 1.0]


def resolve(ratio, d):
    return {"1/d": 1 / d, "(d-1)/d": (d - 1) / d}.get(ratio, ratio)


def draws(rng, d):
    """Update vectors the selection must agree on: continuous, heavy-tailed,
    and two with many tied magnitudes (coarse grid; mostly exact zeros)."""
    normal = rng.normal(size=d).astype(np.float32)
    gridded = np.round(normal, 1)
    sparse = np.where(rng.random(d) < 0.7, 0, normal).astype(np.float32)
    return [normal, rng.standard_t(3, size=d).astype(np.float32), gridded, sparse]


def assert_same_update(got, ref):
    assert got.dense_size == ref.dense_size
    assert got.indices.dtype == ref.indices.dtype == np.int64
    assert got.values.dtype == ref.values.dtype == np.float32
    assert got.indices.tobytes() == ref.indices.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()


def assert_same_array(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def cohort(rng, d):
    """Five Top-K updates at BCRS-like mixed ratios."""
    return [
        RefTopK().compress(rng.standard_t(3, size=d).astype(np.float32), r)
        for r in (0.02, 0.1, 0.1, 0.4, 0.8)
    ]


def check_sum_everywhere(updates, weights, mask, *, post_mask=False):
    """Live sum on both landing buffers == both frozen branches.

    ``post_mask``: the reference is the frozen unmasked sum times ``mask`` —
    where the per-update masking it froze is no longer the contract (D ≥ 2,
    dense updates).
    """
    d = updates[0].dense_size
    ref_mask = None if post_mask else mask
    ref = ref_weighted_sparse_sum(updates, weights, mask=ref_mask)
    ref_arena = ref_weighted_sparse_sum(updates, weights, mask=ref_mask, arena=RefPackArena(d))
    assert_same_array(ref_arena, ref)
    if post_mask and mask is not None:
        ref *= mask
    arena = AggregationArena(d)
    assert_same_array(robust_aggregate(updates, weights, mask=mask), ref)
    for _ in range(2):  # the second call sees the first one's leftovers
        assert_same_array(robust_aggregate(updates, weights, mask=mask, arena=arena), ref)


# --------------------------------------------------------------------------
# Differential grid.


@pytest.mark.parametrize(
    "d,ratio",
    [(d, r) for d in DIMS for r in RATIOS if (d, r) != (1, "(d-1)/d")],  # ratio 0 is invalid
    ids=str,
)
class TestTopKExact:
    def test_allocating_and_block_paths(self, d, ratio):
        ratio = resolve(ratio, d)
        rng = np.random.default_rng([d, int(ratio * 1e6)])
        for update in draws(rng, d):
            ref = RefTopK().compress(update, ratio)
            assert_same_update(TopK().compress(update, ratio), ref)


@pytest.mark.parametrize("d", DIMS)
class TestOverlapMaskSumExact:
    def test_counts_and_histogram(self, d):
        updates = cohort(np.random.default_rng(d), d)
        assert_same_array(overlap_counts(updates), ref_overlap_counts(updates))
        dist = overlap_distribution(updates)
        assert dist.num_clients == len(updates)
        assert_same_array(dist.counts, ref_overlap_hist(updates))

    @pytest.mark.parametrize("required_overlap", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask(self, d, required_overlap, dtype):
        updates = cohort(np.random.default_rng(d), d)
        counts = ref_overlap_counts(updates)
        ref = ref_opwa_mask(counts, 7.3, required_overlap, dtype)
        got = opwa_mask(counts, 7.3, required_overlap=required_overlap, dtype=dtype)
        assert_same_array(got, ref)
        if dtype is np.float32:
            got = opwa_mask_from_updates(updates, 7.3, required_overlap=required_overlap)
            assert_same_array(got, ref)

    @pytest.mark.parametrize("required_overlap", [1, 3])
    @pytest.mark.parametrize("mask_dtype", [None, np.float32, np.float64])
    def test_sum(self, d, required_overlap, mask_dtype):
        rng = np.random.default_rng(d)
        updates = cohort(rng, d)
        weights = rng.dirichlet(np.ones(len(updates)))
        mask = None
        if mask_dtype is not None:
            mask = ref_opwa_mask(
                ref_overlap_counts(updates), 7.3, required_overlap, mask_dtype
            )
        check_sum_everywhere(updates, weights, mask, post_mask=required_overlap > 1)


def test_error_feedback_chain():
    """EF residuals are mostly exact zeros from round two on — the tie-heavy
    input the threshold selection must hand to the fallback."""
    d = 33_610
    rng = np.random.default_rng(5)
    live, ref = ErrorFeedback(TopK()), ErrorFeedback(RefTopK())
    for ratio in (0.5, 0.9, 0.1):
        update = rng.normal(size=d).astype(np.float32)
        got = live.compress(update, ratio)
        want = ref.compress(update, ratio)
        assert_same_update(got, want)
        assert_same_array(live.memory, ref.memory)


# --------------------------------------------------------------------------
# Edge cases a random draw does not reach.


class TestSelectionEdges:
    @pytest.mark.parametrize("ratio", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("case", ["half-zero", "plus-minus", "all-equal"])
    def test_ties_straddling_the_cut(self, rng, case, ratio):
        d = 1000
        update = {
            "half-zero": np.where(np.arange(d) % 2, rng.normal(size=d), 0.0),
            "plus-minus": np.where(rng.random(d) < 0.5, 1.5, -1.5),
            "all-equal": np.full(d, -2.0),
        }[case].astype(np.float32)
        ref = RefTopK().compress(update, ratio)
        assert_same_update(TopK().compress(update, ratio), ref)

    @pytest.mark.parametrize("ratio", [0.002, 0.01, 0.3, 0.99])
    def test_non_finite_and_signed_zero(self, rng, ratio):
        """At 0.01 (k = 20) the cut is inf and exactly 20 magnitudes reach it,
        yet the ten NaNs outrank ten of them: a count check alone is not enough."""
        d = 2000
        update = rng.normal(size=d).astype(np.float32)
        update[rng.choice(d, 40, replace=False)] = np.tile(
            np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32), 10
        )
        with np.errstate(invalid="ignore"):
            ref = RefTopK().compress(update, ratio)
            got = TopK().compress(update, ratio)
        assert_same_update(got, ref)

    def test_exactly_k_entries_even_when_all_tied(self):
        got = TopK().compress(np.zeros(100, dtype=np.float32), 0.1)
        assert got.nnz == 10


class TestSumEdges:
    def test_empty_sparse_and_mixed_dense(self, rng):
        d = 50
        empty = SparseUpdate(
            dense_size=d, indices=np.empty(0, np.int64), values=np.empty(0, np.float32)
        )
        dense = DenseUpdate(dense_size=d, values=rng.normal(size=d).astype(np.float32))
        negative_zero = SparseUpdate(
            dense_size=d, indices=np.array([0, 3]), values=np.array([-0.0, -0.0], np.float32)
        )
        sparse = cohort(rng, d)[:2]
        mask = ref_opwa_mask(ref_overlap_counts(sparse), 3.0)
        for updates, post_mask in (
            ([empty], False),
            ([negative_zero], False),
            ([dense, empty, sparse[0], negative_zero, dense, sparse[1]], True),
        ):
            weights = rng.dirichlet(np.ones(len(updates)))
            check_sum_everywhere(updates, weights, None)
            check_sum_everywhere(updates, weights, mask, post_mask=post_mask)

    def test_non_finite_values(self, rng):
        d = 20
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0], dtype=np.float32)
        a = SparseUpdate(dense_size=d, indices=np.arange(5), values=values)
        b = SparseUpdate(dense_size=d, indices=np.arange(5), values=values[::-1].copy())
        with np.errstate(invalid="ignore"):
            check_sum_everywhere([a, b], np.array([0.25, 0.75]), None)

    def test_wrong_width_arena_rejected(self):
        u = SparseUpdate(dense_size=4, indices=np.array([1]), values=np.ones(1, np.float32))
        with pytest.raises(ValueError, match="arena dense_size 5"):
            weighted_sparse_sum([u], np.ones(1), arena=AggregationArena(5))


_EDGE_VALUES = [0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, np.inf, -np.inf, 3e38, -1.0]
_EDGE_WEIGHTS = [0.0, -0.0, 5e-324, -1e-310, 1e-300, -0.5, -3.0]


@st.composite
def sparse_cohorts(draw):
    """A cohort of sparse updates over a small ``d`` whose values and weights
    reach the IEEE edges: ±0, subnormals, ±inf, zero/negative/tiny weights."""
    d = draw(st.integers(1, 24))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=32, allow_nan=False))
    updates = []
    for _ in range(draw(st.integers(1, 6))):
        indices = np.array(sorted(draw(st.sets(st.integers(0, d - 1)))), dtype=np.int64)
        values = np.array(draw(st.lists(value, min_size=indices.size, max_size=indices.size)), np.float32)
        updates.append(SparseUpdate(dense_size=d, indices=indices, values=values))
    weight = st.one_of(st.sampled_from(_EDGE_WEIGHTS), st.floats(-10, 10))
    weights = np.array(draw(st.lists(weight, min_size=len(updates), max_size=len(updates))))
    gamma = draw(st.sampled_from([1.0, 1.5, 7.3, 8.0, 1e30, 0.5, 1e-3]))
    return updates, weights, gamma


@settings(max_examples=300, deadline=None)
@given(sparse_cohorts())
def test_post_masked_sum_is_the_per_update_reference_at_d1(cohort_):
    """The identity behind "no golden moves": at D = 1, masking the sum once
    equals the frozen per-update masking — every index the mask enlarges has
    exactly one contributor, and multiplying by 1 is exact. The mask comes from
    the cohort's own counts.

    Byte for byte for an enlarge rate γ ≥ 1, the only kind any preset,
    scenario or workload registers. Below 1 (the config accepts any γ > 0) a
    negative product that γ underflows to −0.0 differs in the sign of that
    zero: the frozen sum scattered it onto +0.0 after masking (``0 + (−0.0)``
    is +0.0), the live one masks after the scatter. Values stay equal."""
    updates, weights, gamma = cohort_
    mask = ref_opwa_mask(ref_overlap_counts(updates), gamma)
    with np.errstate(invalid="ignore", over="ignore"):
        if gamma >= 1:
            check_sum_everywhere(updates, weights, mask)
            return
        got = robust_aggregate(updates, weights, mask=mask)
        ref = ref_weighted_sparse_sum(updates, weights, mask=mask)
    same_bits = got.view(np.int64) == ref.view(np.int64)
    assert (same_bits | ((got == 0) & (ref == 0))).all()


@pytest.mark.parametrize("n", [255, 256, 257, 70_000])
def test_counter_does_not_wrap(n):
    d = 3
    shared = SparseUpdate(
        dense_size=d, indices=np.array([0]), values=np.ones(1, np.float32)
    )
    loner = SparseUpdate(
        dense_size=d, indices=np.array([0, 2]), values=np.ones(2, np.float32)
    )
    updates = [shared] * (n - 1) + [loner]
    counts = overlap_counts(updates)
    assert counts.dtype == np.int64
    assert counts.tolist() == [n, 0, 1]
    hist = overlap_distribution(updates).counts
    assert hist.shape == (n,) and hist[0] == 1 and hist[n - 1] == 1 and hist.sum() == 2
    assert opwa_mask_from_updates(updates, 4.0).tolist() == [1.0, 1.0, 4.0]
    mask = opwa_mask_from_updates(updates, 4.0, required_overlap=n)
    assert mask.tolist() == [4.0, 1.0, 4.0]


# --------------------------------------------------------------------------
# Fast-path guard.


def best_of(fn, reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_scatter_adds_stay_on_the_indexed_fast_loop(rng):
    """``np.add.at`` runs an indexed inner loop only when accumulator and
    values share a dtype; otherwise it drops to a generic loop ~25x slower.
    CI's NumPy is unpinned, so leaving the fast loop must fail here rather
    than cost 10x silently: the float64 sum and the uint8 counter are each
    held within 4x of a ``bincount`` over the same 2M entries."""
    d = 2_000_000
    update = SparseUpdate(
        dense_size=d,
        indices=np.arange(d, dtype=np.int64),
        values=rng.normal(size=d).astype(np.float32),
    )
    arena = AggregationArena(d)
    weighted = update.values.astype(np.float64)

    bincount_s = best_of(lambda: np.bincount(update.indices, weights=weighted, minlength=d))
    sum_s = best_of(lambda: weighted_sparse_sum([update], np.array([0.5]), arena=arena))
    assert sum_s < 4 * bincount_s, f"sum {sum_s:.4f}s vs bincount {bincount_s:.4f}s"

    bincount_s = best_of(lambda: np.bincount(update.indices, minlength=d))
    counts_s = best_of(lambda: narrow_overlap_counts([update]))
    assert counts_s < 4 * bincount_s, f"counts {counts_s:.4f}s vs bincount {bincount_s:.4f}s"
