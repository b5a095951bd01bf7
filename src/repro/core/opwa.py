"""Overlap-aware Parameter Weighted Average mask — Algorithm 3 of the paper.

OPWA builds a parameter-wise mask ``M`` from the round's overlap counts:
indices retained by at most ``D`` clients (default 1) get their averaged
update multiplied by the enlarge rate ``γ``; all other indices keep weight 1.
This counteracts the dilution of rarely-retained parameters under uniform
averaging (Eq. 7: ``w_{t+1} = w_t − η · Σ p'_i · M(Δw_i^sparse)``).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import SparseUpdate
from repro.core.overlap import narrow_overlap_counts
from repro.utils.validation import check_positive

__all__ = ["opwa_mask", "opwa_mask_from_updates"]


def opwa_mask(
    counts: np.ndarray,
    gamma: float,
    *,
    required_overlap: int = 1,
    dtype=np.float32,
) -> np.ndarray:
    """Algorithm 3 GenerateMask.

    Parameters
    ----------
    counts:
        Per-index retention counts from
        :func:`repro.core.overlap.narrow_overlap_counts`.
    gamma:
        Enlarge rate ``γ`` applied to low-overlap parameters. The paper sweeps
        γ from 1 up to the client count N and finds the optimum roughly
        proportional to the number of *selected* clients (Fig. 12).
    required_overlap:
        The threshold ``D``: indices with ``1 <= count <= D`` are enlarged.
        Default 1, per Algorithm 3.
    """
    check_positive("gamma", gamma)
    if required_overlap < 1:
        raise ValueError(f"required_overlap must be >= 1, got {required_overlap}")
    counts = np.asarray(counts)
    if counts.ndim != 1:
        raise ValueError(f"counts must be 1-D, got shape {counts.shape}")
    scalar = np.dtype(dtype).type
    low = (counts >= 1) & (counts <= required_overlap)
    return np.where(low, scalar(gamma), scalar(1))


def opwa_mask_from_updates(
    updates: list[SparseUpdate],
    gamma: float,
    *,
    required_overlap: int = 1,
) -> np.ndarray:
    """CalculateOverlap + GenerateMask in one call (Alg. 3)."""
    return opwa_mask(narrow_overlap_counts(updates), gamma, required_overlap=required_overlap)
