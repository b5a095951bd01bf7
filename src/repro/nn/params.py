"""Flat-vector access to model parameters.

FL communication operates on a single contiguous float32 vector per model
(the mpi4py guide's buffer-object idiom): clients send/receive flat vectors.
A model *stores* its parameters as that vector (:meth:`Sequential.flat`), so
loading and reading it here are single copies.
"""

from __future__ import annotations

import numpy as np

from repro.nn.sequential import Sequential

__all__ = [
    "num_parameters",
    "get_flat_params",
    "set_flat_params",
    "param_slices",
]


def num_parameters(model: Sequential) -> int:
    """Total scalar parameter count of ``model``."""
    return model.flat()[0].size


def param_slices(model: Sequential) -> list[tuple[str, slice, tuple[int, ...]]]:
    """Describe the flat layout: (name, slice in the flat vector, shape)."""
    out: list[tuple[str, slice, tuple[int, ...]]] = []
    offset = 0
    for p in model.parameters():
        out.append((p.name, slice(offset, offset + p.size), p.data.shape))
        offset += p.size
    return out


def _read(vec: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return vec.copy()
    if out.shape != vec.shape:
        raise ValueError(f"out has shape {out.shape}, expected {vec.shape}")
    np.copyto(out, vec)
    return out


def get_flat_params(model: Sequential, out: np.ndarray | None = None) -> np.ndarray:
    """Copy all parameters into one contiguous float32 vector."""
    return _read(model.flat()[0], out)


def set_flat_params(model: Sequential, flat: np.ndarray) -> None:
    """Load parameters from a flat vector (inverse of :func:`get_flat_params`)."""
    data = model.flat()[0]
    flat = np.asarray(flat, dtype=np.float32)
    if flat.shape != data.shape:
        raise ValueError(f"flat has shape {flat.shape}, expected {data.shape}")
    np.copyto(data, flat)
