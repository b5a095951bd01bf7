"""Client data partitioning strategies.

Implements the paper's federated setting (Sec. 5.1): distribution-based
label-skew via a Dirichlet prior — client ``i`` receives a ``p_{k,i}``
fraction of class ``k``'s samples where ``p_k ~ Dir(beta)`` — plus IID and
shard partitioners for comparison. Lower ``beta`` means more severe
heterogeneity (Fig. 5 uses beta = 0.5 and 0.1).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "Partition",
    "dirichlet_partition",
    "iid_partition",
    "shard_partition",
]


class Partition:
    """Assignment of dataset indices to clients."""

    def __init__(self, client_indices: list[np.ndarray], labels: np.ndarray, num_classes: int):
        self.client_indices = [np.asarray(ix, dtype=np.int64) for ix in client_indices]
        self.labels = np.asarray(labels)
        self.num_classes = int(num_classes)
        seen = np.concatenate(self.client_indices) if self.client_indices else np.empty(0, np.int64)
        if len(seen) != len(np.unique(seen)):
            raise ValueError("partition assigns some sample to multiple clients")

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)

    def sizes(self) -> np.ndarray:
        """Per-client sample counts ``n_k``."""
        return np.array([len(ix) for ix in self.client_indices], dtype=np.int64)

    def counts_matrix(self) -> np.ndarray:
        """(num_classes, num_clients) class-count matrix — the Fig. 5 heatmap."""
        mat = np.zeros((self.num_classes, self.num_clients), dtype=np.int64)
        for c, ix in enumerate(self.client_indices):
            binc = np.bincount(self.labels[ix], minlength=self.num_classes)
            mat[:, c] = binc
        return mat


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    beta: float,
    seed: int | np.random.Generator = 0,
    *,
    min_size: int = 1,
) -> Partition:
    """Label-skew partition with per-class Dirichlet(beta) client proportions.

    Resamples (up to 100 times) until every client holds at least
    ``min_size`` samples (the standard practice in the non-IID FL literature
    the paper follows).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    rng = as_generator(seed)
    num_classes = int(labels.max()) + 1 if labels.size else 0

    for _ in range(100):
        buckets: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for k in range(num_classes):
            idx_k = np.flatnonzero(labels == k)
            if idx_k.size == 0:
                continue
            rng.shuffle(idx_k)
            proportions = rng.dirichlet(np.full(num_clients, beta))
            # Convert proportions to contiguous split points over the class.
            cuts = (np.cumsum(proportions)[:-1] * idx_k.size).astype(int)
            for client, chunk in enumerate(np.split(idx_k, cuts)):
                buckets[client].append(chunk)
        client_indices = [
            np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64) for b in buckets
        ]
        if min(len(ix) for ix in client_indices) >= min_size:
            return Partition(client_indices, labels, num_classes)
    raise RuntimeError(
        f"could not satisfy min_size={min_size} after 100 retries "
        f"(beta={beta}, num_clients={num_clients}, n={labels.size})"
    )


def iid_partition(
    labels: np.ndarray, num_clients: int, seed: int | np.random.Generator = 0
) -> Partition:
    """Uniform random split — the homogeneous-data control."""
    labels = np.asarray(labels)
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    rng = as_generator(seed)
    perm = rng.permutation(labels.size)
    chunks = np.array_split(perm, num_clients)
    num_classes = int(labels.max()) + 1 if labels.size else 0
    return Partition([np.sort(c) for c in chunks], labels, num_classes)


def shard_partition(
    labels: np.ndarray,
    num_clients: int,
    shards_per_client: int = 2,
    seed: int | np.random.Generator = 0,
) -> Partition:
    """McMahan-style shard partition: sort by label, deal shards to clients.

    The original FedAvg paper's pathological non-IID split; included as an
    alternative heterogeneity model to Dirichlet.
    """
    labels = np.asarray(labels)
    if num_clients < 1 or shards_per_client < 1:
        raise ValueError("num_clients and shards_per_client must be >= 1")
    rng = as_generator(seed)
    order = np.argsort(labels, kind="stable")
    num_shards = num_clients * shards_per_client
    shards = np.array_split(order, num_shards)
    assignment = rng.permutation(num_shards)
    client_indices = []
    for c in range(num_clients):
        mine = assignment[c * shards_per_client : (c + 1) * shards_per_client]
        client_indices.append(np.sort(np.concatenate([shards[s] for s in mine])))
    num_classes = int(labels.max()) + 1 if labels.size else 0
    return Partition(client_indices, labels, num_classes)
