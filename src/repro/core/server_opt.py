"""Server-side optimizers over the aggregated update (FedOpt family).

The paper's related work (Reddi et al., "Adaptive Federated Optimization",
its reference [39]) treats the aggregated client update as a *pseudo-
gradient* and applies a server optimizer to it. Algorithm 1's plain
``w ← w − η_s · Σ p_i Δw_i`` is ServerSGD with no momentum; this module adds
FedAvgM (server momentum) and FedAdam, which compose with BCRS/OPWA — the
mask and coefficients shape the pseudo-gradient, the server optimizer shapes
the step.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import apply_server_update
from repro.utils.validation import check_positive

__all__ = ["ServerOptimizer", "ServerSGD", "ServerAdam", "make_server_optimizer"]


class ServerOptimizer:
    """Maps (current params, pseudo-gradient) to the next global params.

    ``out``/``scratch`` are the buffers of
    :func:`~repro.core.aggregation.apply_server_update`'s in-place descent
    (``out=params`` is legal); a caller that passes neither gets fresh ones.
    """

    def step(
        self,
        params: np.ndarray,
        pseudo_grad: np.ndarray,
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError


class ServerSGD(ServerOptimizer):
    """``w ← w − lr · m_t`` with ``m_t = momentum · m_{t−1} + Δ`` (FedAvgM).

    ``lr=1, momentum=0`` reproduces Algorithm 1's aggregation exactly.
    """

    name = "sgd"

    def __init__(self, lr: float = 1.0, momentum: float = 0.0):
        check_positive("lr", lr)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity: np.ndarray | None = None

    def step(
        self,
        params: np.ndarray,
        pseudo_grad: np.ndarray,
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        if self.momentum > 0:
            if self._velocity is None:
                self._velocity = np.zeros_like(pseudo_grad, dtype=np.float64)
            self._velocity *= self.momentum
            self._velocity += pseudo_grad
            update = self._velocity
        else:
            update = pseudo_grad
        return apply_server_update(params, update, self.lr, out=out, scratch=scratch)


class ServerAdam(ServerOptimizer):
    """FedAdam: Adam over the pseudo-gradient (Reddi et al., 2020)."""

    name = "adam"

    def __init__(
        self,
        lr: float = 0.1,
        beta1: float = 0.9,
        beta2: float = 0.99,
        eps: float = 1e-3,
    ):
        check_positive("lr", lr)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        check_positive("eps", eps)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(
        self,
        params: np.ndarray,
        pseudo_grad: np.ndarray,
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        g = pseudo_grad.astype(np.float64)
        if self._m is None:
            self._m = np.zeros_like(g)
            self._v = np.zeros_like(g)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * g
        self._v = self.beta2 * self._v + (1 - self.beta2) * g * g
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        step = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        # server_step=1.0: fl(1·step) = step exactly, so the buffered path
        # reproduces fl(params − step) bit-for-bit.
        return apply_server_update(params, step, 1.0, out=out, scratch=scratch)


def make_server_optimizer(name: str, **kwargs) -> ServerOptimizer:
    """Build a server optimizer by name (``"sgd"`` or ``"adam"``)."""
    if name == "sgd":
        return ServerSGD(**kwargs)
    if name == "adam":
        return ServerAdam(**kwargs)
    raise KeyError(f"unknown server optimizer {name!r}; available: ['sgd', 'adam']")
