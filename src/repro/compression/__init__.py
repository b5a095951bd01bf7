"""Compression substrate: Top-K, QSGD quantization, error feedback, registry."""

from repro.compression.base import (
    CompressedUpdate,
    Compressor,
    DenseUpdate,
    SparseUpdate,
    compression_error,
)
from repro.compression.registry import available_compressors, make_compressor, register_compressor
from repro.compression.sparsifiers import TopK, k_from_ratio

__all__ = [
    "CompressedUpdate",
    "SparseUpdate",
    "DenseUpdate",
    "Compressor",
    "compression_error",
    "TopK",
    "k_from_ratio",
    "make_compressor",
    "available_compressors",
    "register_compressor",
]
