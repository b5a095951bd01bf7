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
from functools import cached_property

import numpy as np

from repro.compression.base import SparseUpdate

__all__ = ["OverlapDistribution", "overlap_distribution"]


def narrow_overlap_counts(updates: list[SparseUpdate]) -> np.ndarray:
    """Per-index retention count across clients (Alg. 3 CalculateOverlap),
    in the narrowest unsigned dtype that holds the cohort.

    Entry ``j`` is the number of updates that retained index ``j``. uint8
    below 256 updates: the full-width vector the histogram and the mask
    re-read is 1 byte per parameter, not 8. The counting half of
    :class:`~repro.core.aggregation.CohortFold`, fed the list.
    """
    from repro.core.aggregation import CohortFold  # which builds on this module

    if not updates:
        raise ValueError("need at least one update")
    fold = CohortFold(len(updates))
    for u in updates:
        fold.add(u)
    return fold.counts


@dataclass(frozen=True)
class OverlapDistribution:
    """Degree of overlap among *retained* indices (Fig. 4). A round reads only
    :meth:`singleton_fraction`; the histogram is built when read."""

    #: The narrow per-index retention counts (the OPWA mask reuses them).
    per_index: np.ndarray
    num_clients: int

    @cached_property
    def counts(self) -> np.ndarray:
        """``counts[f-1]`` = number of indices retained by exactly ``f`` clients."""
        n = self.num_clients
        return np.bincount(self.per_index, minlength=n + 1)[1 : n + 1].astype(np.int64)

    @property
    def total_retained(self) -> int:
        """Number of distinct indices retained by at least one client."""
        return np.count_nonzero(self.per_index)

    def fractions(self) -> np.ndarray:
        """Share of retained indices per frequency (the Fig. 4 percentages)."""
        total = self.total_retained
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def singleton_fraction(self) -> float:
        """Fraction of retained indices that appear in exactly one client."""
        total = self.total_retained
        return np.count_nonzero(self.per_index == 1) / total if total else 0.0


def overlap_distribution(updates: list[SparseUpdate]) -> OverlapDistribution:
    """Compute the Fig. 4 histogram for one round's compressed updates."""
    return OverlapDistribution(narrow_overlap_counts(updates), len(updates))
