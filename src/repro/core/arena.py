"""Preallocated full-width buffers for the server's aggregate → step path.

A compressing round's server-side cost is array plumbing at the model's
width: the :class:`~repro.core.aggregation.CohortFold` a round folds its
uploads into needs a zeroed ``float64`` sum, the server step a ``float64``
working vector, and the order-statistic rules one densified row per update.
:class:`AggregationArena` owns those buffers once per aggregation point and
hands the same storage out round after round:

- **accumulator** — the zeroed full-width ``float64`` vector every update's
  weighted ``(indices, values)`` are scatter-added into as it arrives.
- **step scratch** — the ``float64`` working vector
  :func:`~repro.core.aggregation.apply_server_update` and the server
  optimizers use for their in-place ``out=`` path, eliminating the
  ``astype(float64)`` copy of the widest array in the system.
- **rows** — the grow-only ``(n, d)`` matrix the coordinate median and the
  trimmed mean densify a cohort into: the one buffer that grows with the
  cohort, so a simulation refuses a cohort whose rows would pass
  :data:`ROWS_CAP_BYTES`.

The arena holds nothing on the client side: every compressor returns an
update that owns its arrays, on every backend and in every protocol, so an
update stays valid for as long as anyone holds it.

Every aggregation writes into an arena: a caller that passes none gets a
fresh one, so there is one code path whether the buffers are reused or not,
and reuse cannot change a result — each buffer is zeroed (or fully
overwritten) before it is read.

The arena is a *single-consumer* structure: one simulation (or one thread)
aggregates at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AggregationArena", "ROWS_CAP_BYTES"]

#: The largest ``|S_t| × d`` float64 rows matrix an order-statistic rule may
#: densify a cohort into (1 GiB): every other aggregation holds O(d).
ROWS_CAP_BYTES = 1 << 30


class AggregationArena:
    """Reusable buffers for one aggregation point of width ``dense_size``."""

    def __init__(self, dense_size: int):
        if dense_size < 1:
            raise ValueError(f"dense_size must be >= 1, got {dense_size}")
        self.dense_size = int(dense_size)
        # Full-width accumulators/scratch (allocated once, O(d)).
        self._acc = np.zeros(self.dense_size, dtype=np.float64)
        self.step_scratch = np.empty(self.dense_size, dtype=np.float64)
        # Densified-update matrix for order-statistic aggregators
        # (coordinate median / trimmed mean); grows to the largest cohort.
        self._rows = np.empty((0, self.dense_size), dtype=np.float64)

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
        return int(self._acc.nbytes + self.step_scratch.nbytes + self._rows.nbytes)
