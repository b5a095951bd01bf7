"""Optimizers and learning-rate schedules for the numpy NN substrate."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["SGD", "Adam"]


# A run builds one optimizer per client task from the same few values, so
# each distinct tuple is checked once (a raise is never cached).
@lru_cache(maxsize=32)
def _check_hyperparameters(lr, momentum, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if weight_decay < 0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")


class SGD:
    """SGD with optional momentum and coupled (L2) weight decay.

    ``weight_decay · w`` is added to the gradient *before* momentum. ``data``
    and ``grad`` are same-shaped float arrays — for a model, the two vectors
    of :meth:`Sequential.flat`; updates happen in place on ``data`` (HPC
    guide: avoid copies in hot loops).
    """

    def __init__(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        lr: float,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        _check_hyperparameters(lr, momentum, weight_decay)
        self.data = data
        self.grad = grad
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(data) if momentum > 0 else None

    def zero_grad(self) -> None:
        """Clear the gradient."""
        self.grad.fill(0)

    def step(self) -> None:
        """Apply one update using the accumulated gradient."""
        g = self.grad
        if self.weight_decay > 0:
            g = g + self.weight_decay * self.data
        if self._velocity is not None:
            v = self._velocity
            v *= self.momentum
            v += g
            g = v
        self.data -= self.lr * g


class Adam:
    """Adam with decoupled weight decay (AdamW-style).

    ``data``/``grad`` as for :class:`SGD`. State updates are fully in-place
    on preallocated moment buffers.
    """

    def __init__(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        lr: float,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        _check_hyperparameters(lr, 0.0, weight_decay, beta1, beta2, eps)
        self.data = data
        self.grad = grad
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = np.zeros_like(data)
        self._v = np.zeros_like(data)
        self._t = 0

    def zero_grad(self) -> None:
        """Clear the gradient."""
        self.grad.fill(0)

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradient."""
        self._t += 1
        bc1 = 1 - self.beta1**self._t
        bc2 = 1 - self.beta2**self._t
        g, m, v = self.grad, self._m, self._v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        if self.weight_decay > 0:
            self.data -= self.lr * self.weight_decay * self.data
        self.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
