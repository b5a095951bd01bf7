"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

import numpy as np

__all__ = ["check_positive", "check_fraction"]


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (``> 0``; or ``>= 0`` if not strict)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` lies in ``(0, 1]`` (or ``[0, 1]`` with allow_zero)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    lo_ok = value >= 0 if allow_zero else value > 0
    if not (lo_ok and value <= 1.0):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be in {bound}, got {value!r}")
    return value
