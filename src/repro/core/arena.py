"""Preallocated buffers for the sparse upload → aggregate hot path.

Once training is vectorized, a compressing round's server-side cost is
dominated by allocation-heavy array plumbing: every ``TopK.compress`` makes
fresh ``(indices, values)`` arrays, ``weighted_sparse_sum`` a full-width
``float64`` sum, and the server step two more full-width temporaries.
:class:`AggregationArena` owns all of those buffers once and reuses them
round after round:

- **compress banks** — one index buffer and one value buffer sized ``Σkᵢ``
  that compressors write into directly through their optional ``out=``
  block interface (:mod:`repro.compression.sparsifiers`). Banks are
  **double-buffered**: the round being aggregated and the previous round's
  ``last_round_updates`` never share storage, so overlap analysis of the
  finished round stays valid while the next round compresses.
- **accumulator** — the zeroed full-width ``float64`` vector
  :func:`~repro.core.aggregation.weighted_sparse_sum` scatter-adds every
  update's block into, straight from the compress bank.
- **step scratch** — the ``float64`` working vector
  :func:`~repro.core.aggregation.apply_server_update` and the server
  optimizers use for their in-place ``out=`` path, eliminating the
  ``astype(float64)`` copy of the widest array in the system.

Determinism contract: every arena path performs exactly the same
elementwise IEEE operations in the same order as the allocating path, so
seeded histories are bit-identical with or without an arena
(``tests/core/test_aggregation.py`` pins this).

The arena is a *single-consumer* structure: one simulation (or one thread)
aggregates at a time. Compress blocks for one round may be filled
concurrently (they are disjoint slices), which is how the thread backend
uses them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AggregationArena"]


class _CompressBank:
    """One round's compressor-output storage: index + value block buffers."""

    __slots__ = ("idx", "val")

    def __init__(self) -> None:
        self.idx = np.empty(0, dtype=np.int64)
        self.val = np.empty(0, dtype=np.float32)

    def ensure(self, capacity: int) -> None:
        if self.idx.size < capacity:
            self.idx = np.empty(capacity, dtype=np.int64)
            self.val = np.empty(capacity, dtype=np.float32)


class AggregationArena:
    """Reusable buffers for one aggregation point of width ``dense_size``."""

    def __init__(self, dense_size: int):
        if dense_size < 1:
            raise ValueError(f"dense_size must be >= 1, got {dense_size}")
        self.dense_size = int(dense_size)
        # Full-width accumulators/scratch (allocated once, O(d)).
        self._acc = np.zeros(self.dense_size, dtype=np.float64)
        self.step_scratch = np.empty(self.dense_size, dtype=np.float64)
        # Double-buffered compressor banks + the current round's block plan.
        self._banks = (_CompressBank(), _CompressBank())
        self._bank_index = 0
        self._blocks: list[tuple[int, int] | None] = []
        # Densified-update matrix for order-statistic aggregators
        # (coordinate median / trimmed mean); grows to the largest cohort.
        self._rows = np.empty((0, self.dense_size), dtype=np.float64)

    # ------------------------------------------------------- compress blocks

    def plan_compress(self, ks: list[int | None]) -> None:
        """Lay out this round's compressor output blocks.

        ``ks[position]`` is the exact retained-entry count the compressor at
        that position will emit (``None`` = no block: dense upload, or a
        compressor whose output size is value-dependent). Flips to the other
        bank so views handed out last round stay intact.
        """
        self._bank_index ^= 1
        total = sum(k for k in ks if k is not None)
        bank = self._banks[self._bank_index]
        bank.ensure(total)
        blocks: list[tuple[int, int] | None] = []
        offset = 0
        for k in ks:
            if k is None:
                blocks.append(None)
            else:
                if k < 1:
                    raise ValueError(f"block size must be >= 1, got {k}")
                blocks.append((offset, k))
                offset += k
        self._blocks = blocks

    def compress_block(self, position: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(index view, value view) planned for ``position`` — or ``None``.

        Views are disjoint slices of the active bank, so concurrent fills
        from different positions (the thread backend) are race-free.
        """
        if position >= len(self._blocks):
            return None
        block = self._blocks[position]
        if block is None:
            return None
        offset, k = block
        bank = self._banks[self._bank_index]
        return bank.idx[offset : offset + k], bank.val[offset : offset + k]

    # ------------------------------------------------- full-width buffers

    def accumulator(self) -> np.ndarray:
        """The zeroed full-width ``float64`` reduction target."""
        self._acc[...] = 0.0
        return self._acc

    def rows(self, n: int) -> np.ndarray:
        """A zeroed ``(n, dense_size)`` float64 matrix for densified updates.

        The order-statistic aggregators (:mod:`repro.robust.aggregators`)
        scatter each update into one row and reduce down the columns;
        reusing one grow-only matrix keeps a robust round allocation-free
        after warmup.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self._rows.shape[0] < n:
            self._rows = np.empty((n, self.dense_size), dtype=np.float64)
        view = self._rows[:n]
        view[...] = 0.0
        return view

    # ------------------------------------------------------------- metrics

    def nbytes(self) -> int:
        """Total bytes currently held (observability/reporting)."""
        arrays = [self._acc, self.step_scratch, self._rows]
        for bank in self._banks:
            arrays += [bank.idx, bank.val]
        return int(sum(a.nbytes for a in arrays))
