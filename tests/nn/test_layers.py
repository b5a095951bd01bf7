"""Gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.sequential import Sequential
from tests.conftest import check_layer_gradients


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        np.testing.assert_allclose(layer(x), x @ layer.weight.data + layer.bias.data, atol=1e-6)

    def test_gradients(self, rng):
        layer = Linear(4, 3, rng)
        check_layer_gradients(layer, rng.normal(size=(5, 4)))

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert len(layer.parameters()) == 1
        check_layer_gradients(layer, rng.normal(size=(2, 4)))

    def test_backward_without_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.zeros((1, 2), dtype=np.float32))

    def test_grad_accumulates(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        g = rng.normal(size=(4, 2)).astype(np.float32)
        layer(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first, rtol=1e-5)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU()(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_gradients(self, rng):
        check_layer_gradients(ReLU(), rng.normal(size=(3, 5)) + 0.1)


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = layer(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestSequential:
    def test_compose_and_param_collection(self, rng):
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        assert len(model.parameters()) == 4
        assert len(model) == 3

    def test_gradients_through_stack(self, rng):
        model = Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 2, rng))
        check_layer_gradients(model, rng.normal(size=(3, 3)))

    def test_append_builder(self, rng):
        model = Sequential().append(Linear(2, 2, rng))
        assert len(model) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: Sequential(Flatten(), Linear(48, 4, rng), ReLU(), Linear(4, 2, rng)),
            lambda rng: Sequential(Flatten(), Linear(48, 4, rng, bias=False), ReLU(), Linear(4, 2, rng)),
            lambda rng: Sequential(Flatten(), ReLU(), Linear(48, 2, rng)),
            lambda rng: Sequential(Sequential(Flatten(), Linear(48, 2, rng)), ReLU()),
            lambda rng: Sequential(Sequential(Sequential(Flatten(), Linear(48, 3, rng)), ReLU()), Linear(3, 2, rng)),
            lambda rng: Sequential(Flatten(), ReLU()),
        ],
        ids=["linear-first", "unbiased-first", "relu-first", "nested-first", "doubly-nested-first", "no-params"],
    )
    def test_backward_without_input_grad(self, build, rng):
        """input_grad=False returns None and leaves exactly the parameter
        gradients a full backward does, whatever the first trainable layer is."""
        model = build(rng)
        x = rng.normal(size=(5, 3, 4, 4)).astype(np.float32)
        grads = []
        for input_grad in (True, False):
            for p in model.parameters():
                p.zero_grad()
            out = model.forward(x, training=True)
            grad_in = model.backward(np.ones_like(out), input_grad=input_grad)
            assert (grad_in is None) == (not input_grad)
            grads.append([p.grad.copy() for p in model.parameters()])
        for full, lean in zip(*grads):
            assert full.tobytes() == lean.tobytes()
