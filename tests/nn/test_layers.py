"""Gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.sequential import BasicBlock, Sequential
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
        layer(x); layer.backward(g)
        first = layer.weight.grad.copy()
        layer(x); layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first, rtol=1e-5)


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, rng, stride=2, padding=1)
        out = layer(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert out.shape == (2, 8, 4, 4)

    def test_gradients(self, rng):
        layer = Conv2d(2, 3, 3, rng, stride=1, padding=1)
        check_layer_gradients(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_gradients_strided_no_pad(self, rng):
        layer = Conv2d(1, 2, 2, rng, stride=2, padding=0)
        check_layer_gradients(layer, rng.normal(size=(1, 1, 4, 4)))

    def test_matches_naive_convolution(self, rng):
        layer = Conv2d(1, 1, 3, rng, padding=0, bias=False)
        x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        out = layer(x, training=False)
        k = layer.weight.data[0, 0]
        naive = np.zeros((3, 3), dtype=np.float64)
        for i in range(3):
            for j in range(3):
                naive[i, j] = np.sum(x[0, 0, i : i + 3, j : j + 3] * k)
        np.testing.assert_allclose(out[0, 0], naive, rtol=1e-5)


class TestBatchNorm2d:
    def test_normalizes_batch(self, rng):
        layer = BatchNorm2d(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(16, 4, 3, 3)).astype(np.float32)
        out = layer(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=5.0, size=(8, 2, 2, 2)).astype(np.float32)
        layer(x, training=True)
        assert np.all(layer.running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(8, 2, 2, 2)).astype(np.float32)
        out = layer(x, training=False)
        np.testing.assert_allclose(out, x / np.sqrt(1 + layer.eps), atol=1e-5)

    def test_gradients(self, rng):
        layer = BatchNorm2d(3)
        check_layer_gradients(layer, rng.normal(size=(4, 3, 2, 2)), atol=2e-2)


class TestGroupNorm:
    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_normalizes_groups(self, rng):
        layer = GroupNorm(2, 4)
        x = rng.normal(loc=2.0, size=(3, 4, 4, 4)).astype(np.float32)
        out = layer(x, training=True)
        grouped = out.reshape(3, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)

    def test_gradients(self, rng):
        layer = GroupNorm(2, 4)
        check_layer_gradients(layer, rng.normal(size=(2, 4, 2, 2)), atol=2e-2)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU()(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_gradients(self, rng):
        check_layer_gradients(ReLU(), rng.normal(size=(3, 5)) + 0.1)


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self, rng):
        check_layer_gradients(MaxPool2d(2), rng.normal(size=(2, 2, 4, 4)))

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = GlobalAvgPool2d()(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-6)

    def test_global_avgpool_gradients(self, rng):
        check_layer_gradients(GlobalAvgPool2d(), rng.normal(size=(2, 3, 3, 3)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = layer(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestBasicBlock:
    def test_identity_skip_shape(self, rng):
        block = BasicBlock(4, 4, rng)
        out = block(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        assert out.shape == (2, 4, 4, 4)

    def test_projection_skip_shape(self, rng):
        block = BasicBlock(4, 8, rng, stride=2)
        out = block(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        assert out.shape == (2, 8, 2, 2)
        assert block.downsample is not None

    def test_gradients_identity(self, rng):
        block = BasicBlock(2, 2, rng)
        check_layer_gradients(block, rng.normal(size=(2, 2, 3, 3)), atol=3e-2)

    def test_gradients_projection(self, rng):
        block = BasicBlock(2, 4, rng, stride=2)
        check_layer_gradients(block, rng.normal(size=(2, 2, 4, 4)), atol=3e-2)


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
            lambda rng: Sequential(Conv2d(3, 2, 3, rng, padding=1), ReLU(), GlobalAvgPool2d(), Linear(2, 2, rng)),
            lambda rng: Sequential(BatchNorm2d(3), Conv2d(3, 2, 3, rng), GlobalAvgPool2d()),
            lambda rng: Sequential(BasicBlock(3, 2, rng), GlobalAvgPool2d()),
            lambda rng: Sequential(Sequential(Flatten(), Linear(48, 2, rng)), ReLU()),
            lambda rng: Sequential(Flatten(), ReLU()),
        ],
        ids=["linear-first", "conv-first", "norm-first", "block-first", "nested-first", "no-params"],
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
