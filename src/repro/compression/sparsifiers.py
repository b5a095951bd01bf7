"""Top-K magnitude sparsification, the paper's compressor.

Alg. 1 line 12 compresses each client's update with ``TopK(Δw, CR_i)``;
``ef_topk`` wraps the same sparsifier in error feedback (the EF-TopK
baseline). ``compress`` returns a :class:`~repro.compression.base.SparseUpdate`
that owns freshly allocated ``(indices, values)`` arrays — sorted ``int64``
indices, ``float32`` values — so an update stays valid however long the
caller holds it and whichever backend produced it.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import SparseUpdate
from repro.utils.validation import check_fraction

__all__ = ["TopK", "k_from_ratio"]


def k_from_ratio(dense_size: int, ratio: float) -> int:
    """Number of retained entries for a target retained fraction.

    Rounds to nearest and keeps at least one entry so an upload is never empty.
    """
    check_fraction("ratio", ratio)
    if dense_size < 1:
        raise ValueError(f"dense_size must be >= 1, got {dense_size}")
    return max(1, min(dense_size, int(round(dense_size * ratio))))


def _topk_indices(update: np.ndarray, k: int) -> np.ndarray:
    """Sorted int64 indices of the ``k`` largest-|value| entries (float32 in).

    Above a tenth density, by threshold: an in-place ``partition`` yields the
    k-th largest magnitude and ``flatnonzero`` of the entries reaching it
    emits the survivors already in index order — O(d) at every ratio, where
    sorting ``argpartition``'s indices costs k log k. The select runs on the
    ``uint32`` view of ``|u|``, 2–3× cheaper and exact: non-negative binary32
    values order as their bit patterns, with every |NaN| above +inf, where
    the float select puts them. At or below a tenth the index sort stays
    (``flatnonzero`` walks sparse masks entry by entry). Since the integer-key
    cut it is the cheaper of the two only at paper width (d = 1M, 1/10
    density: 2.9 vs 3.2 ms; d = 33,610: 67 vs 40 µs), but dropping the rule
    cost ``wide_kernels`` 2–5 % — docs/PERFORMANCE.md, "Invariants hoisted out
    of the step and dispatch loops". The index sort also arbitrates whenever
    the threshold set is not the answer: magnitudes tied at the cut (more than
    ``k`` survivors) or a NaN ranked into the top ``k`` (it compares false).
    Which tied entries survive is the float-keyed ``argpartition``'s pick —
    the one seeded histories record.
    """
    d = update.shape[0]
    if k >= d:
        return np.arange(d, dtype=np.int64)
    if 10 * k > d:
        mag = np.abs(update)
        bits = mag.view(np.uint32)
        bits.partition(d - k)
        cut = mag[d - k]
        idx = np.flatnonzero((update >= cut) | (update <= -cut))
        if idx.size == k and bits[d - k :].max() <= 0x7F800000:  # +inf: no NaN on top
            return idx.astype(np.int64, copy=False)
    idx = np.argpartition(np.abs(update), d - k)[d - k :]
    return np.sort(idx).astype(np.int64, copy=False)


class TopK:
    """Magnitude Top-K sparsification.

    Retains the ``k = ratio·d`` largest-|value| entries, selected in O(d) by
    :func:`_topk_indices` (HPC guide: choose the cheaper algorithm).
    """

    name = "topk"

    def compress(self, update: np.ndarray, ratio: float) -> SparseUpdate:
        update = np.ascontiguousarray(update, dtype=np.float32)
        d = update.shape[0]
        k = k_from_ratio(d, ratio)
        idx = _topk_indices(update, k)
        return SparseUpdate(dense_size=d, indices=idx, values=np.take(update, idx))

