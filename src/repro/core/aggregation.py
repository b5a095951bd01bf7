"""Server-side aggregation rules — Algorithm 1 lines 14–18.

All three rules consume the clients' (sparse) updates ``Δw_i = w_t − w_i``
and produce the next global model:

- **FedAvg** (line 14):     ``w ← w − η_s · Σ f_i · Δw_i``
- **BCRS** (line 16):       ``w ← w − η_s · Σ p'_i · Δw_i``
- **BCRS+OPWA** (line 18):  ``w ← w − η_s · M ⊙ Σ p'_i · Δw_i``

where ``η_s`` is the server step (1.0 recovers exact FedAvg for dense
updates), ``p'_i`` comes from Eq. 6 and ``M`` from Algorithm 3.

Eq. 7 is a weighted sum over clients and Alg. 3's CalculateOverlap a count,
so a :class:`CohortFold` takes both one upload at a time, as it arrives: a
round never holds its cohort. Sparse updates scatter-add, in the order they
are added, straight into one float64 accumulator — no concatenation, no
dense temporaries. Eq. 7 is linear in ``M``, so under every rule ``M``
scales the aggregate once, at :meth:`CohortFold.finish`; at ``D = 1`` and
``γ ≥ 1`` bit-identical to masking each update (an enlarged index has one
contributor). The list functions feed a list into the same fold.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate, SparseUpdate
from repro.core.arena import AggregationArena
from repro.core.opwa import opwa_mask
from repro.core.overlap import OverlapDistribution

__all__ = ["CohortFold", "fold_list", "weighted_sparse_sum", "apply_server_update"]

#: The order-statistic rules: one densified row per update, weights ignored.
ROW_RULES = ("median", "trimmed_mean")


def clipped_weight(update: CompressedUpdate, weight, tau: float):
    """``weight · min(1, τ/‖u‖₂)``; an update inside the radius keeps its
    weight untouched (no multiply by a computed 1.0)."""
    vals = update.values if isinstance(update, SparseUpdate) else update.to_dense()
    norm = float(np.linalg.norm(vals.astype(np.float64)))
    return weight * (tau / norm) if norm > tau else weight


class CohortFold:
    """One aggregation, folded in one upload at a time.

    ``capacity`` is the most updates :meth:`add` takes; it sizes the narrow
    overlap counts (uint8 below 256 updates) and the order-statistic rows.
    The sum lands in the ``arena``'s accumulator; without an arena the fold
    only counts, and with ``count=False`` it only aggregates.
    """

    def __init__(
        self,
        capacity: int,
        arena: AggregationArena | None = None,
        *,
        aggregator: str = "mean",
        trim_beta: float = 0.1,
        clip_tau: float | None = None,
        count: bool = True,
    ):
        if aggregator not in ("mean", "norm_clip", *ROW_RULES):
            raise ValueError(f"unknown aggregator {aggregator!r}")
        if aggregator == "norm_clip" and not (clip_tau or 0) > 0:
            raise ValueError(f"aggregator='norm_clip' needs clip_tau > 0, got {clip_tau}")
        if aggregator == "trimmed_mean" and not 0.0 <= trim_beta < 0.5:
            raise ValueError(f"beta must be in [0, 0.5), got {trim_beta}")
        self.capacity, self.arena, self.aggregator = capacity, arena, aggregator
        self.trim_beta, self.clip_tau, self.count = trim_beta, clip_tau, count
        self.added = 0  # updates folded in
        self.sparse = 0  # of them sparse: the overlap histogram's client count
        self.counts: np.ndarray | None = None  # narrow per-index retention counts
        self.rows: np.ndarray | None = None  # order-statistic rules' densified rows
        self.overlap: OverlapDistribution | None = None  # set by finish()
        self._sum: np.ndarray | None = None

    def add(self, update: CompressedUpdate, weight=0.0) -> None:
        """Fold one upload in: its ``weight``-scaled float64 values into the
        sum (its densified row under an order-statistic rule, its clipped
        weight under ``norm_clip``), its indices into the overlap counts."""
        d = update.dense_size
        if self.arena is not None and d != self.arena.dense_size:
            raise ValueError(f"arena dense_size {self.arena.dense_size} != update's {d}")
        sparse = isinstance(update, SparseUpdate)
        if sparse and self.count:
            if self.counts is None:
                self.counts = np.zeros(d, dtype=np.min_scalar_type(self.capacity))
            elif self.counts.size != d:
                raise ValueError(f"dense_size mismatch: {d} != {self.counts.size}")
            # A one in the counter's own dtype keeps np.add.at on its indexed
            # fast loop (a Python int is ~30x slower).
            np.add.at(self.counts, update.indices, self.counts.dtype.type(1))
        if self.arena is not None and self.aggregator in ROW_RULES:
            if self.rows is None:
                self.rows = self.arena.rows(self.capacity)
            if sparse:
                self.rows[self.added, update.indices] = update.values
            else:
                self.rows[self.added] = update.to_dense()
        elif self.arena is not None:
            if self._sum is None:
                self._sum = self.arena.accumulator()
            if self.aggregator == "norm_clip":
                weight = clipped_weight(update, weight, self.clip_tau)
            if sparse:
                # All-float64 operands keep np.add.at on its indexed fast
                # loop; a dtype mismatch drops it to a generic one ~25x slower.
                np.add.at(self._sum, update.indices, np.multiply(weight, update.values, dtype=np.float64))
            else:
                self._sum += weight * update.to_dense().astype(np.float64)
        self.added += 1
        self.sparse += sparse

    def finish(self, mask: np.ndarray | None = None, *, gamma=None, required_overlap: int = 1):
        """Close the fold and return the pseudo-gradient (in the arena's
        accumulator, valid until its next use).

        Builds the Fig. 4 histogram (:attr:`overlap`) from the counts and,
        given ``gamma``, the OPWA mask (Alg. 3 GenerateMask); the mask, or
        the one passed in, scales the rule's aggregate once.
        """
        if not self.added:
            raise ValueError("need at least one update")
        if self.counts is not None:
            self.overlap = OverlapDistribution.from_counts(self.counts, self.sparse)
            if gamma is not None:
                mask = opwa_mask(self.counts, gamma, required_overlap=required_overlap)
        if self.rows is None:
            out = self._sum
        else:
            n, out = self.added, self.arena.accumulator()
            rows = self.rows[:n]
            if self.aggregator == "median":
                np.median(rows, axis=0, out=out, overwrite_input=True)
            else:
                k = int(self.trim_beta * n)
                rows.sort(axis=0)
                np.mean(rows[k : n - k], axis=0, out=out)
        if mask is not None:
            if mask.shape != out.shape:
                raise ValueError(f"mask shape {mask.shape} != {out.shape}")
            out *= mask
        return out


def fold_list(
    updates: list[CompressedUpdate],
    weights=None,
    *,
    arena: AggregationArena | None = None,
    **rule,
) -> CohortFold:
    """A list's fold: ``updates`` (each with its entry of ``weights``, when
    the rule weighs them) added in list order into ``arena`` (a fresh one
    without it), counting nothing."""
    if not updates:
        raise ValueError("need at least one update")
    arena = arena if arena is not None else AggregationArena(updates[0].dense_size)
    fold = CohortFold(len(updates), arena, count=False, **rule)
    weights = np.zeros(len(updates)) if weights is None else np.asarray(weights, np.float64)
    if weights.shape != (len(updates),):
        raise ValueError(f"weights shape {weights.shape} != ({len(updates)},)")
    for u, w in zip(updates, weights):
        fold.add(u, w)
    return fold


def weighted_sparse_sum(
    updates: list[CompressedUpdate],
    weights: np.ndarray,
    *,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """Compute ``Σ_i weights[i] · dense(updates[i])``, every index summing
    its contributions in list order.

    The result lands in the ``arena``'s accumulator (valid until the next
    call on that arena); without one, in a fresh arena's.
    """
    return fold_list(updates, weights, arena=arena).finish()


def apply_server_update(
    global_params: np.ndarray,
    aggregated_update: np.ndarray,
    server_step: float = 1.0,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``w_{t+1} = w_t − η_s · Σ(...)`` — the descent step of lines 14/16/18.

    ``out`` (float32, params-shaped) receives the stepped parameters in
    place — ``out=global_params`` is legal, reads complete before the write.
    ``scratch`` (float64, params-shaped) is the working vector, letting a
    caller with an :class:`~repro.core.arena.AggregationArena` reuse it
    round after round. A caller that passes neither gets fresh buffers; the
    arithmetic is the same: ``fl((−s)·b + a) ≡ fl(a − s·b)``, rounded to
    float32 by ``copyto``.
    """
    if global_params.shape != aggregated_update.shape:
        raise ValueError(
            f"shape mismatch {global_params.shape} vs {aggregated_update.shape}"
        )
    if scratch is None:
        scratch = np.empty(global_params.shape, dtype=np.float64)
    elif scratch.shape != global_params.shape or scratch.dtype != np.float64:
        raise ValueError("scratch must be a float64 array of the params' shape")
    if out is None:
        out = np.empty(global_params.shape, dtype=np.float32)
    elif out.shape != global_params.shape:
        raise ValueError(f"out shape {out.shape} != {global_params.shape}")
    # fl(−s·b) = −fl(s·b) (sign-exact), then fl(−s·b + a) ≡ fl(a − s·b).
    np.multiply(aggregated_update, -float(server_step), out=scratch)
    scratch += global_params
    np.copyto(out, scratch, casting="unsafe")
    return out
