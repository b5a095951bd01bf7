"""Loss functions returning (scalar loss, gradient w.r.t. logits)."""

from __future__ import annotations

import numpy as np

__all__ = ["cross_entropy"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch of integer labels.

    Returns ``(loss, dloss/dlogits)`` where the gradient already includes the
    1/N batch-mean factor.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    # One pass over the intermediates a stable log-softmax and softmax
    # share, so loss and gradient are bit-equal to computing both; reductions
    # are direct ufunc calls and the gradient is built in `e`'s storage.
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=1, keepdims=True)
    rows = np.arange(n)
    loss = -float(np.add.reduce(shifted[rows, labels] - np.log(total)[:, 0]) / n)
    np.divide(e, total, out=e)
    e[rows, labels] -= 1.0
    e /= n
    return loss, e.astype(logits.dtype, copy=False)
