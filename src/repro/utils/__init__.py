"""Shared utilities: seeded RNG streams, validation helpers, lightweight logging."""

from repro.utils.rng import RngFactory, as_generator
from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "RngFactory",
    "as_generator",
    "check_fraction",
    "check_positive",
]
