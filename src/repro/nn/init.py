"""Weight initializers for the numpy NN substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "zeros"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """He-uniform initialization (gain for ReLU) of a dense ``(in, out)`` weight."""
    bound = np.sqrt(6.0 / shape[0])
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """All-zeros tensor (biases)."""
    return np.zeros(shape, dtype=dtype)
