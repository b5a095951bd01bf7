"""Loss functions returning (scalar loss, gradient w.r.t. logits)."""

from __future__ import annotations

import numpy as np

__all__ = ["cross_entropy"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray, *, out=None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch of integer labels.

    Returns ``(loss, dloss/dlogits)`` where the gradient already includes the
    1/N batch-mean factor, built in ``out`` if given (``out=logits`` is legal).
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    # One pass over the intermediates a stable log-softmax and softmax
    # share, so loss and gradient are bit-equal to computing both; reductions
    # are direct ufunc calls; the gradient is built over the shifted logits.
    e = np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=out)
    rows = np.arange(n)
    picked = e[rows, labels]
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=1, keepdims=True)
    loss = -float(np.add.reduce(picked - np.log(total)[:, 0]) / n)
    np.divide(e, total, out=e)
    e[rows, labels] -= 1.0
    e /= n
    return loss, e
