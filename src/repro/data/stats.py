"""Heterogeneity statistics over partitions (quantifies Fig. 5)."""

from __future__ import annotations

import numpy as np

from repro.data.partition import Partition

__all__ = [
    "label_entropy",
    "mean_label_entropy",
    "earth_movers_distance",
    "mean_emd_to_global",
    "heatmap_text",
]


def _client_distributions(partition: Partition) -> np.ndarray:
    """(num_clients, num_classes) row-normalized label distributions."""
    mat = partition.counts_matrix().T.astype(np.float64)  # clients × classes
    totals = mat.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return mat / totals


def label_entropy(partition: Partition) -> np.ndarray:
    """Per-client Shannon entropy (nats) of the local label distribution.

    IID clients approach ``log(num_classes)``; severe skew approaches 0.
    """
    dists = _client_distributions(partition)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(dists > 0, dists * np.log(dists), 0.0)
    return -terms.sum(axis=1)


def mean_label_entropy(partition: Partition) -> float:
    """Average of :func:`label_entropy` over clients."""
    return float(label_entropy(partition).mean())


def earth_movers_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1-D EMD (total variation on categorical support via L1/2)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def mean_emd_to_global(partition: Partition) -> float:
    """Mean distance of client label distributions from the global one.

    The standard scalar summary of label-skew severity: ~0 for IID, →1 for
    single-class clients.
    """
    dists = _client_distributions(partition)
    counts = partition.counts_matrix().sum(axis=1).astype(np.float64)
    global_dist = counts / counts.sum()
    return float(np.mean([earth_movers_distance(d, global_dist) for d in dists]))


def heatmap_text(partition: Partition) -> str:
    """ASCII rendition of the Fig. 5 class×client count heatmap (first ten
    classes)."""
    mat = partition.counts_matrix()[:10]
    lines = ["class\\client " + " ".join(f"{c:>6d}" for c in range(partition.num_clients))]
    for k, row in enumerate(mat):
        lines.append(f"{k:>12d} " + " ".join(f"{v:>6d}" for v in row))
    return "\n".join(lines)
