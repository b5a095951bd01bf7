"""Shared test fixtures and numerical-gradient helpers."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. array ``x``."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def layer_loss(layer, x: np.ndarray, w: np.ndarray) -> float:
    """Scalar probe loss sum(out * w) for checking layer gradients."""
    out = layer.forward(x.astype(np.float32), training=True)
    return float(np.sum(out.astype(np.float64) * w))


def check_layer_gradients(layer, x: np.ndarray, *, atol: float = 1e-2, rtol: float = 5e-2) -> None:
    """Verify input and parameter gradients of ``layer`` at point ``x``.

    Uses the probe loss L = sum(out * w) with fixed random w, so
    dL/dout = w feeds backward directly.
    """
    rng = np.random.default_rng(0)
    out = layer.forward(x.astype(np.float32), training=True)
    w = rng.normal(size=out.shape).astype(np.float64)

    # Analytic gradients (backward writes them; nothing to zero first).
    grad_in = layer.backward(w.astype(np.float32))

    # Numeric input gradient.
    xf = x.astype(np.float64)
    num_gx = numeric_grad(lambda: layer_loss(layer, xf, w), xf)
    np.testing.assert_allclose(grad_in, num_gx, atol=atol, rtol=rtol)

    # Numeric parameter gradients.
    for p in layer.parameters():
        analytic = p.grad.copy()
        pdata = p.data.astype(np.float64)

        def probe(p=p, pdata=pdata):
            p.data = pdata.astype(np.float32)
            return layer_loss(layer, xf, w)

        num_gp = numeric_grad(probe, pdata)
        p.data = pdata.astype(np.float32)
        np.testing.assert_allclose(analytic, num_gp, atol=atol, rtol=rtol, err_msg=p.name)


def is_aliased(model) -> bool:
    """Whether every parameter and gradient of ``model`` is a view of its two
    flat vectors, at the position ``parameters()`` order assigns it."""
    data, grad = model.flat()
    offset = 0
    for p in model.parameters():
        span = slice(offset, offset + p.size)
        if not (p.data.base is data and p.grad.base is grad and p.data.flags.c_contiguous
                and np.shares_memory(p.data, data[span]) and np.shares_memory(p.grad, grad[span])):
            return False
        offset = span.stop
    return offset == data.size
