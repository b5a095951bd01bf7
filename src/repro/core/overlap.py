"""Degree-of-overlap metric (Sec. 4.1.3, Fig. 3/4).

For the compressed updates of a round's selected clients, the *degree of
overlap* of a parameter index is the number of clients that retained it.
Under high compression the retention pattern is heterogeneous: at CR=0.01 the
paper measures ~87 % of retained indices appearing in only one client's
update, which uniform averaging then shrinks by ``1/|S_t|`` — the
under-updating OPWA compensates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import SparseUpdate

__all__ = ["overlap_counts", "OverlapDistribution", "overlap_distribution"]


def narrow_overlap_counts(updates: list[SparseUpdate]) -> np.ndarray:
    """Retention counts in the narrowest unsigned dtype that holds the cohort.

    uint8 below 256 updates: the full-width vector the histogram and the
    mask re-read is 1 byte per parameter, not 8. The counting half of
    :class:`~repro.core.aggregation.CohortFold`, fed the list.
    """
    from repro.core.aggregation import CohortFold  # which builds on this module

    if not updates:
        raise ValueError("need at least one update")
    fold = CohortFold(len(updates))
    for u in updates:
        fold.add(u)
    return fold.counts


def overlap_counts(updates: list[SparseUpdate]) -> np.ndarray:
    """Per-index retention count across clients (Alg. 3 CalculateOverlap).

    Returns an int64 vector of length ``dense_size``; entry ``j`` is the
    number of clients whose sparse update retained index ``j`` (0 if none).
    """
    return narrow_overlap_counts(updates).astype(np.int64)


@dataclass(frozen=True)
class OverlapDistribution:
    """Histogram of degree of overlap among *retained* indices (Fig. 4)."""

    counts: np.ndarray  # counts[f-1] = number of indices retained by exactly f clients
    num_clients: int
    #: The narrow per-index counts the histogram was built from (the OPWA mask reuses them).
    per_index: np.ndarray | None = None

    @property
    def total_retained(self) -> int:
        """Number of distinct indices retained by at least one client."""
        return int(self.counts.sum())

    def fractions(self) -> np.ndarray:
        """Share of retained indices per frequency (the Fig. 4 percentages)."""
        total = self.total_retained
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    @classmethod
    def from_counts(cls, per_index: np.ndarray, n: int) -> "OverlapDistribution":
        """The histogram of ``n`` updates' narrow per-index retention counts."""
        hist = np.bincount(per_index, minlength=n + 1)[1 : n + 1]
        return cls(counts=hist.astype(np.int64), num_clients=n, per_index=per_index)

    def singleton_fraction(self) -> float:
        """Fraction of retained indices that appear in exactly one client."""
        return float(self.fractions()[0])


def overlap_distribution(updates: list[SparseUpdate]) -> OverlapDistribution:
    """Compute the Fig. 4 histogram for one round's compressed updates."""
    return OverlapDistribution.from_counts(narrow_overlap_counts(updates), len(updates))
