"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.losses import cross_entropy
from repro.nn.models import build_mlp
from repro.nn.optim import Adam


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = Parameter("w", np.zeros(2, dtype=np.float32))
        p.grad[...] = [1.0, -3.0]
        Adam(p.data, p.grad, lr=0.1).step()
        np.testing.assert_allclose(p.data, [-0.1, 0.1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter("w", np.array([4.0], dtype=np.float32))
        opt = Adam(p.data, p.grad, lr=0.2)
        for _ in range(200):
            p.zero_grad()
            p.grad[...] = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.05

    def test_weight_decay_shrinks(self):
        p = Parameter("w", np.array([10.0], dtype=np.float32))
        opt = Adam(p.data, p.grad, lr=0.1, weight_decay=0.1)
        opt.step()  # zero grad: only decay acts (plus epsilon-sized adam step)
        assert p.data[0] < 10.0

    def test_trains_mlp_faster_than_nothing(self, rng):
        model = build_mlp(8, 3, hidden=(16,), seed=0)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        labels = rng.integers(0, 3, size=32)
        opt = Adam(*model.flat(), lr=0.01)
        first, last = None, None
        for i in range(40):
            opt.zero_grad()
            loss, g = cross_entropy(model(x), labels)
            model.backward(g)
            opt.step()
            first = loss if first is None else first
            last = loss
        assert last < first * 0.7

    @pytest.mark.parametrize("kwargs", [
        dict(lr=0), dict(lr=0.1, beta1=1.0), dict(lr=0.1, eps=0), dict(lr=0.1, weight_decay=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Adam(np.zeros(1), np.zeros(1), **kwargs)
