"""Seeded mini-batch iteration over a shard of an in-memory corpus."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.data.datasets import Dataset
from repro.utils.rng import as_generator

__all__ = ["BatchLoader"]


class BatchLoader:
    """Iterate the shard ``indices`` of ``dataset`` in shuffled mini-batches,
    gathered straight from the corpus (a whole dataset is ``np.arange(n)``).

    Re-iterating yields a fresh shuffle from the same generator, so a client's
    epoch order is reproducible given its RNG stream.
    """

    def __init__(
        self,
        dataset: Dataset,
        indices: np.ndarray,
        batch_size: int,
        rng: int | np.random.Generator = 0,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        self.batch_size = int(batch_size)
        self.rng = as_generator(rng)

    def __len__(self) -> int:
        return -(-len(self.indices) // self.batch_size)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rows = self.indices[self.rng.permutation(len(self.indices))]
        x, y = self.dataset.x, self.dataset.y
        for start in range(0, len(rows), self.batch_size):
            idx = rows[start : start + self.batch_size]
            yield x[idx], y[idx]
