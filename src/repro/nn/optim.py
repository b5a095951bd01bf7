"""The local optimizer of the numpy NN substrate: plain SGD (Alg. 1 line 25)."""

from __future__ import annotations

import numpy as np

__all__ = ["SGD"]


class SGD:
    """Plain SGD: ``w ← w − lr · g``.

    ``data`` and ``grad`` are same-shaped float arrays — for a model, the two
    vectors of :meth:`Sequential.flat`; updates happen in place on ``data``.
    """

    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.data = data
        self.grad = grad
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear the gradient."""
        self.grad.fill(0)

    def step(self) -> None:
        """Apply one update using the accumulated gradient."""
        self.data -= self.lr * self.grad
