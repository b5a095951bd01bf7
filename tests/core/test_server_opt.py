"""Tests for server optimizers (FedOpt family)."""

import numpy as np
import pytest

from repro.core.server_opt import ServerAdam, ServerSGD, make_server_optimizer


class TestServerSGD:
    def test_plain_step_matches_alg1(self):
        """lr=1, momentum=0 is Algorithm 1's w − Σ p_i Δw_i exactly."""
        opt = ServerSGD(lr=1.0)
        w = np.array([1.0, 2.0], dtype=np.float32)
        g = np.array([0.5, -0.5])
        np.testing.assert_allclose(opt.step(w, g), [0.5, 2.5])

    def test_momentum_accumulates(self):
        opt = ServerSGD(lr=1.0, momentum=0.9)
        w = np.zeros(1, dtype=np.float32)
        g = np.ones(1)
        w = opt.step(w, g)  # v=1, w=-1
        w = opt.step(w, g)  # v=1.9, w=-2.9
        assert w[0] == pytest.approx(-2.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerSGD(lr=0)
        with pytest.raises(ValueError):
            ServerSGD(lr=1, momentum=1.0)


class TestServerAdam:
    def test_first_step_is_lr_sized(self):
        """Bias correction makes the first Adam step ≈ lr·sign(g)."""
        opt = ServerAdam(lr=0.1, eps=1e-8)
        w = np.zeros(2, dtype=np.float32)
        g = np.array([1.0, -2.0])
        w = opt.step(w, g)
        np.testing.assert_allclose(w, [-0.1, 0.1], atol=1e-5)

    def test_adapts_to_scale(self):
        """Constant gradients of different magnitude produce equal step sizes."""
        opt1, opt2 = ServerAdam(lr=0.1, eps=1e-8), ServerAdam(lr=0.1, eps=1e-8)
        w1 = w2 = np.zeros(1, dtype=np.float32)
        for _ in range(20):
            w1 = opt1.step(w1, np.array([0.001]))
            w2 = opt2.step(w2, np.array([100.0]))
        assert w1[0] == pytest.approx(w2[0], rel=1e-3)

    def test_converges_on_quadratic(self):
        opt = ServerAdam(lr=0.5, eps=1e-8)
        w = np.array([5.0], dtype=np.float32)
        for _ in range(300):
            w = opt.step(w, 2 * w.astype(np.float64))
        assert abs(w[0]) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerAdam(lr=0)
        with pytest.raises(ValueError):
            ServerAdam(beta1=1.0)
        with pytest.raises(ValueError):
            ServerAdam(eps=0)


class TestFactory:
    def test_dispatch(self):
        assert isinstance(make_server_optimizer("sgd"), ServerSGD)
        assert isinstance(make_server_optimizer("adam"), ServerAdam)

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_server_optimizer("lamb")
