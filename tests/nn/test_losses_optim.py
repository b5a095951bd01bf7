"""Tests for the cross-entropy loss and the SGD optimizer."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from tests.conftest import numeric_grad


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        logits = np.zeros((4, 10), dtype=np.float32)
        loss, _ = cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(10), rel=1e-5)

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(3, 5)).astype(np.float64)
        labels = np.array([0, 4, 2])
        _, grad = cross_entropy(logits, labels)
        num = numeric_grad(lambda: cross_entropy(logits, labels)[0], logits, eps=1e-5)
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_gradient_rows_sum_zero(self, rng):
        logits = rng.normal(size=(6, 4)).astype(np.float32)
        _, grad = cross_entropy(logits, rng.integers(0, 4, size=6))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_confident_correct_low_loss(self):
        logits = np.array([[10.0, -10.0]], dtype=np.float32)
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-4


class TestSGD:
    def test_plain_step(self):
        p = Parameter("w", np.array([1.0, 2.0], dtype=np.float32))
        p.grad[...] = [0.5, 0.5]
        SGD(p.data, p.grad, lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.95], rtol=1e-6)

    def test_step_matches_lr_times_grad(self, rng):
        """``grad *= lr; data -= grad`` rounds exactly like ``data -= lr * grad``."""
        data = rng.normal(size=1000).astype(np.float32)
        grad = rng.normal(size=1000).astype(np.float32)
        want = data - 0.37 * grad
        SGD(data, grad, lr=0.37).step()
        assert data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kwargs", [dict(lr=0)])
    def test_rejects_bad_hparams(self, kwargs):
        with pytest.raises(ValueError):
            SGD(np.zeros(1), np.zeros(1), **kwargs)

    def test_converges_on_quadratic(self):
        p = Parameter("w", np.array([5.0], dtype=np.float32))
        opt = SGD(p.data, p.grad, lr=0.1)
        for _ in range(100):
            p.grad[...] = 2 * p.data  # d/dw w^2
            opt.step()
        assert abs(p.data[0]) < 1e-3
