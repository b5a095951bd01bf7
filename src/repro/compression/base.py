"""Compression interfaces and the sparse update wire format.

All compressors map a dense flat ``float32`` update vector to a
:class:`CompressedUpdate` carrying (a) enough information to reconstruct a
dense vector and (b) an exact bit count for the network cost model. Sparse
formats store ``(indices, values)`` pairs — matching the factor-2 volume in
the paper's cost model (Alg. 2 line 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["CompressedUpdate", "SparseUpdate", "DenseUpdate", "Compressor", "compression_error"]


@dataclass(frozen=True)
class CompressedUpdate:
    """Abstract transmitted update."""

    dense_size: int

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def bits(self) -> float:
        """Transmitted volume in bits (for the network cost model)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SparseUpdate(CompressedUpdate):
    """Sparse (indices, values) representation of a flat update vector."""

    indices: np.ndarray  # int64, sorted, unique
    values: np.ndarray  # float32
    index_bits: int = 32
    value_bits: int = 32

    def __post_init__(self):
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError(
                f"indices/values must be matching 1-D arrays, got "
                f"{self.indices.shape} and {self.values.shape}"
            )
        idx = self.indices
        if idx.size:
            # One pass: a strictly increasing array has its extremes at the ends.
            increasing = bool((idx[1:] > idx[:-1]).all())
            lo, hi = (idx[0], idx[-1]) if increasing else (idx.min(), idx.max())
            if int(lo) < 0 or int(hi) >= self.dense_size:
                raise ValueError("indices out of range")
            if not increasing:
                raise ValueError("indices must be strictly increasing")

    @property
    def nnz(self) -> int:
        """Number of retained entries."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """Retained fraction — the realized compression ratio."""
        return self.nnz / self.dense_size if self.dense_size else 0.0

    @property
    def bits(self) -> float:
        return float(self.nnz) * (self.index_bits + self.value_bits)

    def to_dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """Scatter values into a dense vector."""
        if out is None:
            out = np.zeros(self.dense_size, dtype=np.float32)
        elif out.shape != (self.dense_size,):
            raise ValueError(f"out has shape {out.shape}, expected ({self.dense_size},)")
        else:
            out[...] = 0
        out[self.indices] = self.values
        return out


@dataclass(frozen=True)
class DenseUpdate(CompressedUpdate):
    """Uncompressed (or quantized-dense) update."""

    values: np.ndarray  # float32 dense vector
    value_bits: int = 32

    def __post_init__(self):
        if self.values.shape != (self.dense_size,):
            raise ValueError(f"values shape {self.values.shape} != ({self.dense_size},)")

    @property
    def bits(self) -> float:
        return float(self.dense_size) * self.value_bits

    def to_dense(self) -> np.ndarray:
        return self.values.astype(np.float32, copy=True)


@runtime_checkable
class Compressor(Protocol):
    """Maps a dense update to a transmissible :class:`CompressedUpdate`.

    ``ratio`` is the target retained fraction for sparsifiers; quantizers may
    ignore it (their savings come from fewer bits per value).
    """

    def compress(self, update: np.ndarray, ratio: float) -> CompressedUpdate: ...


def compression_error(update: np.ndarray, compressed: CompressedUpdate) -> float:
    """Relative L2 reconstruction error ``||u - û|| / ||u||``."""
    dense = compressed.to_dense()
    denom = float(np.linalg.norm(update))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(update - dense)) / denom
