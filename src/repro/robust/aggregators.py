"""Robust aggregation rules beside the paper's weighted mean.

Three defenses, in increasing exactness:

- :func:`coordinate_median` — per-coordinate median over the cohort's
  densified updates; breakdown point 1/2.
- :func:`trimmed_mean` — per-coordinate mean after discarding the ``⌊β·n⌋``
  largest and smallest entries; breakdown point β, and exactly the plain
  (unweighted) mean when β trims nothing.
- :func:`norm_clip_weights` — scales each update's aggregation weight by
  ``min(1, τ/‖u‖₂)``; bounds any single client's influence at ``τ·w_i``
  while staying *bit-identical* to the weighted mean whenever no update
  exceeds the radius (unclipped weights are never touched).

The order-statistic rules are unweighted by construction (a weighted median
would re-open the door to weight-inflation attacks); they densify the
cohort into an :meth:`AggregationArena.rows <repro.core.arena.
AggregationArena.rows>` matrix (a fresh arena's when the caller passes
none) — non-fixed-k compressors need no special case, since densification
never assumes a uniform nnz. Under every rule, the weighted mean included,
the OPWA mask scales the aggregated pseudo-gradient once:
``agg(u, mask=m) = m ⊙ agg(u)``. For the order statistics it is the only
well-defined choice (masking before the median would let zeroed
coordinates vote).

All rules produce a pseudo-gradient consumed by the unchanged
:func:`repro.core.aggregation.apply_server_update` / server-optimizer step.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate, SparseUpdate
from repro.core.aggregation import weighted_sparse_sum
from repro.core.arena import AggregationArena, arena_for

__all__ = [
    "densify_updates",
    "coordinate_median",
    "trimmed_mean",
    "norm_clip_weights",
    "robust_aggregate",
]


def densify_updates(
    updates: list[CompressedUpdate],
    *,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """Scatter the cohort into an ``(n, d)`` float64 row matrix.

    Row ``i`` is ``dense(updates[i])`` upcast to float64 (exact for the
    float32 wire formats). The rows live in the ``arena``'s reusable matrix
    (a fresh arena's without one), zeroed per call, so the scatter is
    correct for any sparsity pattern, fixed-k or not.
    """
    rows = arena_for(updates, arena).rows(len(updates))
    for i, u in enumerate(updates):
        if isinstance(u, SparseUpdate):
            rows[i, u.indices] = u.values
        else:
            rows[i, :] = u.to_dense()
    return rows


def coordinate_median(
    updates: list[CompressedUpdate],
    *,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """Per-coordinate median of the densified cohort (breakdown point 1/2)."""
    arena = arena_for(updates, arena)
    rows = densify_updates(updates, arena=arena)
    out = arena.accumulator()
    np.median(rows, axis=0, out=out, overwrite_input=True)
    return out


def trimmed_mean(
    updates: list[CompressedUpdate],
    beta: float,
    *,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """Per-coordinate β-trimmed mean: drop ``⌊β·n⌋`` per tail, average the rest.

    ``β < 0.5`` guarantees at least one surviving row. ``β`` small enough to
    trim nothing degrades to the exact unweighted mean.
    """
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta must be in [0, 0.5), got {beta}")
    arena = arena_for(updates, arena)
    n = len(updates)
    k = int(beta * n)
    rows = densify_updates(updates, arena=arena)
    out = arena.accumulator()
    rows.sort(axis=0)
    np.mean(rows[k : n - k], axis=0, out=out)
    return out


def norm_clip_weights(
    updates: list[CompressedUpdate],
    weights: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Aggregation weights with each update's L2 influence capped at ``τ``.

    ``w_i ← w_i · min(1, τ/‖uᵢ‖₂)``. Updates inside the radius keep their
    weight *untouched* (no multiply by a computed 1.0), so routing the
    result through :func:`~repro.core.aggregation.weighted_sparse_sum` is
    bit-identical to the plain mean whenever nothing clips.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.shape != (len(updates),):
        raise ValueError(f"weights shape {w.shape} != ({len(updates)},)")
    for i, u in enumerate(updates):
        vals = u.values if isinstance(u, SparseUpdate) else u.to_dense()
        norm = float(np.linalg.norm(vals.astype(np.float64)))
        if norm > tau:
            w[i] *= tau / norm
    return w


def robust_aggregate(
    updates: list[CompressedUpdate],
    weights: np.ndarray,
    *,
    aggregator: str = "mean",
    trim_beta: float = 0.1,
    clip_tau: float | None = None,
    mask: np.ndarray | None = None,
    arena: AggregationArena | None = None,
) -> np.ndarray:
    """The pseudo-gradient under one named aggregation rule.

    The single branch point every simulation calls: ``"mean"`` is the
    historical :func:`~repro.core.aggregation.weighted_sparse_sum` (same
    call, same buffers, bit-identical), the rest are this module's
    defenses. ``weights`` feed the mean and norm-clip rules; the
    order-statistic rules ignore them by design. ``mask`` (the OPWA ``M``)
    then scales the rule's aggregate: ``m ⊙ agg(u)``, for every rule.
    """
    if aggregator == "mean":
        out = weighted_sparse_sum(updates, weights, arena=arena)
    elif aggregator == "norm_clip":
        if clip_tau is None:
            raise ValueError("aggregator='norm_clip' needs clip_tau")
        clipped = norm_clip_weights(updates, weights, clip_tau)
        out = weighted_sparse_sum(updates, clipped, arena=arena)
    elif aggregator == "median":
        out = coordinate_median(updates, arena=arena)
    elif aggregator == "trimmed_mean":
        out = trimmed_mean(updates, trim_beta, arena=arena)
    else:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    if mask is not None:
        if mask.shape != out.shape:
            raise ValueError(f"mask shape {mask.shape} != {out.shape}")
        out *= mask
    return out
