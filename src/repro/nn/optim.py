"""The local optimizer of the numpy NN substrate: plain SGD (Alg. 1 line 25)."""

from __future__ import annotations

import numpy as np

__all__ = ["SGD"]


class SGD:
    """Plain SGD: ``w ← w − lr · g``.

    ``data`` and ``grad`` are same-shaped float arrays — for a model, the two
    vectors of :meth:`Sequential.flat`. A step updates ``data`` in place and
    consumes ``grad``, which the next ``backward`` writes afresh.
    """

    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.data = data
        self.grad = grad
        self.lr = float(lr)

    def step(self) -> None:
        """``grad *= lr; data -= grad``: the roundings of ``data -= lr * grad``."""
        self.grad *= self.lr
        self.data -= self.grad
