"""Shared test fixtures, the numerical-gradient helper and the model-layout check."""

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


def is_aliased(model) -> bool:
    """Whether every layer's ``(W, b, dW, db)`` are views of the model's two
    flat vectors at the spans the ``(W, b)``-per-layer layout assigns them."""
    start = 0
    for w, b, dw, db in model.layers:
        spans = ((w, model.data, start), (b, model.data, start + w.size),
                 (dw, model.grad, start), (db, model.grad, start + w.size))
        for view, vec, at in spans:
            if not (view.base is vec and view.flags.c_contiguous
                    and view.ctypes.data == vec.ctypes.data + at * vec.itemsize):
                return False
        start += w.size + b.size
    return start == model.data.size
