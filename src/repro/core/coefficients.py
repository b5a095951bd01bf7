"""Client-averaging coefficients — Eq. 6 of the paper.

FedAvg weighs client ``i`` by its data frequency ``f_i = n_i / n``. BCRS
additionally accounts for how much of the update each client actually
transmitted, via the *normalized* scheduled compression ratio:

    p'_i = f_i / max(f_i, Norm(CR_i)) · α

With ``Norm`` the sum-normalization (ratios as a share of the round's total),
a client whose transmitted share exceeds its data share is scaled back, so
high-bandwidth clients cannot dominate the average simply because BCRS let
them upload more parameters; α is the server learning rate.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "NORM_MODES", "normalize_ratios", "adjusted_coefficients", "fedavg_coefficients",
    "straggler_cut",
]


#: Valid ``Norm()`` variants for Eq. 6 (the ``norm_mode`` ablation axis).
NORM_MODES = ("sum", "max", "none")


def normalize_ratios(ratios: np.ndarray, mode: str = "sum") -> np.ndarray:
    """Normalize scheduled ratios — the ``Norm()`` of Eq. 6.

    The three modes are the ablation axis behind ``ExperimentConfig.norm_mode``
    (compared in the norm-choice ablation bench):

    ========  =============================  =====================================
    mode      definition                     effect in Eq. 6
    ========  =============================  =====================================
    "sum"     ``CR_i / Σ_j CR_j``            ratios become shares summing to 1,
                                             directly comparable to the data
                                             frequencies ``f_i`` (paper default)
    "max"     ``CR_i / max_j CR_j``          the best-connected client keeps 1;
                                             others are scaled relative to it, so
                                             fewer clients get damped
    "none"    ``CR_i`` unchanged             raw scheduled ratios; with small CR*
                                             almost no client exceeds ``f_i`` and
                                             Eq. 6 degrades toward ``α·1``
    ========  =============================  =====================================
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValueError(f"ratios must be a non-empty 1-D array, got shape {ratios.shape}")
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive")
    if mode == "sum":
        return ratios / ratios.sum()
    if mode == "max":
        return ratios / ratios.max()
    if mode == "none":
        return ratios.copy()
    raise ValueError(
        f"unknown normalization mode {mode!r}; expected one of {NORM_MODES}"
    )


def fedavg_coefficients(data_frequencies: np.ndarray) -> np.ndarray:
    """Plain FedAvg weights: ``p_i = f_i`` (Alg. 1 line 13/14)."""
    f = np.asarray(data_frequencies, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("data_frequencies must be a non-empty 1-D array")
    if np.any(f < 0) or abs(f.sum() - 1.0) > 1e-6:
        raise ValueError("data_frequencies must be non-negative and sum to 1")
    return f.copy()


def adjusted_coefficients(
    data_frequencies: np.ndarray,
    ratios: np.ndarray,
    alpha: float,
    *,
    norm: str = "sum",
) -> np.ndarray:
    """Eq. 6: ``p'_i = f_i / max(f_i, Norm(CR_i)) · α``.

    Each coefficient is at most ``α`` (reached when the client's transmitted
    share does not exceed its data share).
    """
    f = fedavg_coefficients(data_frequencies)
    check_positive("alpha", alpha)
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != f.shape:
        raise ValueError(f"ratios shape {ratios.shape} != frequencies shape {f.shape}")
    normed = normalize_ratios(ratios, mode=norm)
    return f / np.maximum(f, normed) * alpha


def straggler_cut(weights, times, deadline: float) -> np.ndarray:
    """Drop every member whose ``times`` entry misses ``deadline`` and
    renormalise the rest of ``weights`` to sum 1.

    A member finishing at the cut up to float rounding (1e-9) makes it. When
    every positive-weight member (there is one) misses, the fastest of them
    keeps weight 1: an update the weights already zeroed is never brought back.
    """
    weights = np.asarray(weights, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    cut = weights * (times <= deadline + 1e-9)
    if cut.sum() == 0.0:
        pool = np.flatnonzero(weights > 0)
        cut[pool[np.argmin(times[pool])]] = 1.0
    return cut / cut.sum()
