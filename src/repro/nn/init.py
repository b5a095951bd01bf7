"""Weight initializers for the numpy NN substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_normal", "kaiming_uniform", "zeros", "ones"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in/fan-out for dense ((in, out)) or conv ((oc, ic, kh, kw)) shapes."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """He-normal initialization (gain for ReLU)."""
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """He-uniform initialization (gain for ReLU)."""
    fan_in, _ = _fan_in_out(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """All-zeros tensor (biases, BN shift)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """All-ones tensor (BN scale)."""
    return np.ones(shape, dtype=dtype)
