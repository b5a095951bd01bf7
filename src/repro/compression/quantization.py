"""QSGD quantization (Sec. 2.2's orthogonal direction).

It reduces bits-per-value instead of entry count: QSGD-style stochastic
quantization (Alekhine et al.'s scheme as used by FedPAQ). It emits
:class:`DenseUpdate`s whose ``bits`` reflect the reduced precision, so the
same network cost model prices them.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import DenseUpdate
from repro.utils.rng import as_generator

__all__ = ["QSGDQuantizer"]


class QSGDQuantizer:
    """Stochastic uniform quantization to ``2^bits − 1`` levels per sign.

    Values are scaled by the vector's max-|v|, mapped onto a uniform grid and
    rounded stochastically so the quantized vector is unbiased.
    """

    name = "qsgd"

    def __init__(self, bits: int = 8, seed: int | np.random.Generator = 0):
        if not 1 <= bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {bits}")
        self.bits = int(bits)
        self.rng = as_generator(seed)

    def compress(self, update: np.ndarray, ratio: float = 1.0) -> DenseUpdate:
        update = np.ascontiguousarray(update, dtype=np.float32)
        d = update.shape[0]
        scale = float(np.max(np.abs(update))) if d else 0.0
        if scale == 0.0:
            return DenseUpdate(dense_size=d, values=update.copy(), value_bits=self.bits)
        levels = (1 << self.bits) - 1
        normalized = np.abs(update) / scale * levels
        floor = np.floor(normalized)
        prob = normalized - floor
        quantized = floor + (self.rng.random(d) < prob)
        values = (np.sign(update) * quantized * (scale / levels)).astype(np.float32)
        return DenseUpdate(dense_size=d, values=values, value_bits=self.bits)

