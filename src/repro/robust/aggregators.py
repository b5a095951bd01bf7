"""Robust aggregation rules beside the paper's weighted mean.

Three defenses, in increasing exactness, each a
:class:`~repro.core.aggregation.CohortFold` rule:

- ``"median"`` — per-coordinate median over the cohort's densified
  updates; breakdown point 1/2.
- ``"trimmed_mean"`` — per-coordinate mean after discarding the ``⌊β·n⌋``
  largest and smallest entries; breakdown point β, and exactly the plain
  (unweighted) mean when β trims nothing.
- ``"norm_clip"`` — scales each update's aggregation weight by
  ``min(1, τ/‖u‖₂)`` as it arrives; bounds any single client's influence at
  ``τ·w_i`` while staying *bit-identical* to the weighted mean whenever no
  update exceeds the radius (unclipped weights are never touched).

The order-statistic rules are unweighted by construction (a weighted median
would re-open the door to weight-inflation attacks); they densify the
cohort into an :meth:`AggregationArena.rows <repro.core.arena.
AggregationArena.rows>` matrix — non-fixed-k compressors need no special
case, since densification never assumes a uniform nnz — the one buffer
that grows with the cohort (:data:`~repro.core.arena.ROWS_CAP_BYTES`).
Under every rule, the weighted mean included, the OPWA mask scales the
aggregated pseudo-gradient once: ``agg(u, mask=m) = m ⊙ agg(u)``. For the
order statistics it is the only well-defined choice (masking before the
median would let zeroed coordinates vote).

:func:`robust_aggregate` feeds a list into the fold the simulations fold
their rounds into, and produces a pseudo-gradient consumed by the unchanged
:func:`repro.core.aggregation.apply_server_update` / server-optimizer step.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate
from repro.core.aggregation import fold_list
from repro.core.arena import AggregationArena

__all__ = ["robust_aggregate"]


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
    """The pseudo-gradient of a list of updates under one named rule.

    ``"mean"`` is :func:`~repro.core.aggregation.weighted_sparse_sum`
    (same fold, same buffers, bit-identical), ``"norm_clip"`` the mean over
    clipped weights, and the order-statistic rules ignore ``weights`` by
    design. ``mask`` (the OPWA ``M``) then scales the rule's aggregate:
    ``m ⊙ agg(u)``, for every rule.
    """
    rule = dict(aggregator=aggregator, trim_beta=trim_beta, clip_tau=clip_tau)
    weighed = aggregator in ("mean", "norm_clip")
    return fold_list(updates, weights if weighed else None, arena=arena, **rule).finish(mask)
