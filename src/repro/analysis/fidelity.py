"""Compression-fidelity diagnostics.

Quantifies what a compressor does to an update stream: relative error,
retained-mass fraction, and the effective server-side signal after masked
weighted averaging — the quantity OPWA is designed to restore (Sec. 4.1.3's
"diminished client update signals").
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedUpdate
from repro.core.aggregation import weighted_sparse_sum

__all__ = ["retained_mass", "relative_error", "aggregation_fidelity"]


def retained_mass(update: np.ndarray, compressed: CompressedUpdate, *, ord: int = 2) -> float:
    """Fraction of the update's Lp mass the compressed form carries."""
    dense = compressed.to_dense().astype(np.float64)
    total = float(np.linalg.norm(update.astype(np.float64), ord=ord))
    if total == 0.0:
        return 1.0
    return float(np.linalg.norm(dense, ord=ord)) / total


def relative_error(update: np.ndarray, compressed: CompressedUpdate) -> float:
    """Relative L2 reconstruction error ‖u − û‖/‖u‖."""
    dense = compressed.to_dense().astype(np.float64)
    denom = float(np.linalg.norm(update))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(update.astype(np.float64) - dense)) / denom


def aggregation_fidelity(
    updates: list[np.ndarray],
    compressed: list[CompressedUpdate],
    weights: np.ndarray,
    *,
    mask: np.ndarray | None = None,
) -> float:
    """Cosine similarity between the true weighted average of dense updates
    and the (optionally OPWA-masked) aggregate of their compressed forms.

    This is the end-to-end quantity that matters to convergence: a mask that
    raises it moves the server step closer to the uncompressed direction —
    the paper's Eq. 7 rationale, measurable.
    """
    if len(updates) != len(compressed):
        raise ValueError(f"{len(updates)} dense vs {len(compressed)} compressed updates")
    weights = np.asarray(weights, dtype=np.float64)
    true = np.zeros(updates[0].shape[0], dtype=np.float64)
    for w, u in zip(weights, updates):
        true += w * u.astype(np.float64)
    approx = weighted_sparse_sum(compressed, weights)
    if mask is not None:
        approx *= mask
    denom = np.linalg.norm(true) * np.linalg.norm(approx)
    if denom == 0.0:
        return 1.0 if not true.any() and not approx.any() else 0.0
    return float(true @ approx / denom)
