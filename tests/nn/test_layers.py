"""Gradient checks and behavioural tests for every layer."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.losses import cross_entropy
from repro.nn.models import build_mlp
from repro.nn.optim import SGD
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

    def test_grad_is_written_not_accumulated(self, rng):
        """A second backward replaces the gradients, so a step needs no zeroing."""
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        g = rng.normal(size=(4, 2)).astype(np.float32)
        layer(x)
        layer.backward(g)
        first = [p.grad.copy() for p in layer.parameters()]
        layer(x)
        layer.backward(g)
        for p, want in zip(layer.parameters(), first):
            assert p.grad.tobytes() == want.tobytes()


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
            out = model.forward(x, training=True)
            grad_in = model.backward(np.ones_like(out), input_grad=input_grad)
            assert (grad_in is None) == (not input_grad)
            grads.append([p.grad.copy() for p in model.parameters()])
        for full, lean in zip(*grads):
            assert full.tobytes() == lean.tobytes()


class TestWorkspaces:
    def test_training_passes_reuse_storage_and_evaluation_does_not(self, rng):
        """Batch after batch a training pass lends the same buffers (a ragged
        batch takes their leading rows); ``training=False`` returns fresh arrays."""
        model = Sequential(Flatten(), Linear(12, 8, rng), ReLU(), Linear(8, 3, rng))
        seen = []
        for rows in (6, 6, 4):
            out = model(rng.normal(size=(rows, 12)).astype(np.float32), training=True)
            grad_in = model.backward(np.ones_like(out))
            seen.append((out, grad_in))
        (out0, in0), (out1, in1), (out2, in2) = seen
        assert out2.shape == (4, 3) and in2.shape == (4, 12)
        assert np.shares_memory(out0, out1) and np.shares_memory(out0, out2)
        assert np.shares_memory(in0, in1) and np.shares_memory(in0, in2)
        fresh = model(rng.normal(size=(6, 12)).astype(np.float32), training=False)
        assert not np.shares_memory(fresh, out0)

    def test_a_taller_batch_regrows_the_buffers(self, rng):
        layer = Linear(5, 4, rng)
        for rows in (2, 7):
            x = rng.normal(size=(rows, 5)).astype(np.float32)
            assert layer(x).tobytes() == (x @ layer.weight.data + layer.bias.data).tobytes()

    def test_a_warm_training_step_allocates_no_array(self, rng):
        """Forward, loss gradient (over the logits), backward and SGD step on a
        sized model keep no array alive across operations. What tracemalloc
        still sees is transient: per-row scalars, and the iterator buffer NumPy
        takes for the broadcast bias add and the bool-mask multiply, at most one
        activation block. Fresh activations would hold five blocks at once."""
        model = build_mlp(192, 10, seed=0)  # hidden (128, 64)
        opt = SGD(*model.flat(), lr=0.1)
        x = rng.normal(size=(32, 192)).astype(np.float32)
        y = rng.integers(0, 10, size=32)

        def step(rows):
            logits = model(x[:rows], training=True)
            cross_entropy(logits, y[:rows], out=logits)
            model.backward(logits, input_grad=False)
            opt.step()

        step(32)  # sizes the workspaces
        tracemalloc.start()
        try:
            step(32)
            step(20)  # a ragged batch
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 128 * 4 + 4096
