"""The MLP: flat storage and layout, gradients, workspaces, training."""

import tracemalloc

import numpy as np
import pytest

from repro.exec import BACKENDS
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.nn.losses import cross_entropy
from repro.nn.mlp import MLP, MODELS
from repro.nn.optim import SGD
from tests.conftest import is_aliased, numeric_grad

#: Hidden widths: no hidden layer, and one to three of them.
SHAPES = {"linear": (), "one-hidden": (5,), "two-hidden": (6, 4), "three-hidden": (7, 6, 5)}


class TestFlatStorage:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layout_is_w_then_b_per_layer(self, shape):
        """``data``/``grad`` are float32, one ``(in, out)`` weight then its bias
        per layer; the layer views are those spans, so writes go both ways."""
        model = MLP(6, 2, hidden=SHAPES[shape], seed=0)
        widths = (6, *SHAPES[shape], 2)
        dims = list(zip(widths, widths[1:]))
        assert model.data.dtype == model.grad.dtype == np.float32
        assert model.data.size == model.grad.size == sum((i + 1) * o for i, o in dims)
        assert [(w.shape, b.shape) for w, b, _, _ in model.layers] == [((i, o), (o,)) for i, o in dims]
        assert is_aliased(model)
        model.data[...] = np.arange(model.data.size, dtype=np.float32)
        assert np.concatenate([v.ravel() for w, b, _, _ in model.layers for v in (w, b)]).tobytes() \
            == model.data.tobytes()
        model.layers[-1][3][...] = 7.0
        assert (model.grad[-2:] == 7.0).all()

    def test_init_is_he_uniform_weights_and_zero_biases(self):
        model = MLP(12, 5, hidden=(8,), seed=0)
        for w, b, dw, db in model.layers:
            assert np.abs(w).max() <= np.sqrt(6.0 / w.shape[0]) and w.std() > 0
            assert not b.any() and not dw.any() and not db.any()

    def test_same_seed_same_init(self):
        assert MLP(6, 2, seed=42).data.tobytes() == MLP(6, 2, seed=42).data.tobytes()

    def test_different_seed_different_init(self):
        assert not np.array_equal(MLP(6, 2, seed=1).data, MLP(6, 2, seed=2).data)

    def test_config_names_the_one_model(self):
        assert MODELS == ("mlp",)
        with pytest.raises(ValueError, match="model must be one of"):
            ExperimentConfig(model="cnn")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aliasing_survives_train_evaluate_restore(self, backend):
        config = ExperimentConfig(dataset="synth-cifar10", num_clients=4, num_train=200,
                                  num_test=50, rounds=2, seed=0, backend=backend, workers=2)
        with Simulation(config) as sim:
            params = sim.model.data.copy()
            sim.run()
            assert is_aliased(sim.model)
            sim.evaluate()
            assert is_aliased(sim.model)
            np.copyto(sim.model.data, params)
            assert is_aliased(sim.model)
            assert sim.model.layers[0][0].ravel()[0] == params[0]


class TestPasses:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_is_the_layer_stack(self, shape, rng):
        """Flatten, then ``x @ W + b`` per layer with ReLU between; training
        and evaluation passes give the same logits."""
        model = MLP(3 * 2 * 2, 4, hidden=SHAPES[shape], seed=0)
        x = rng.normal(size=(7, 3, 2, 2)).astype(np.float32)
        h = x.reshape(7, -1)
        for i, (w, b, _, _) in enumerate(model.layers):
            h = h @ w + b
            if i < len(model.layers) - 1:
                h = np.maximum(h, 0)
        assert model(x, training=False).tobytes() == h.tobytes()
        assert model(x, training=True).tobytes() == h.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradients_match_numeric(self, shape, rng):
        """``backward`` writes ∂L/∂θ for the probe loss L = Σ logits · p."""
        model = MLP(8, 3, hidden=SHAPES[shape], seed=0)
        x = rng.normal(size=(6, 2, 2, 2)).astype(np.float32)
        probe = rng.normal(size=(6, 3))
        model(x, training=True)
        model.backward(probe.astype(np.float32))

        def loss():
            return float(np.sum(model(x, training=False).astype(np.float64) * probe))

        np.testing.assert_allclose(model.grad, numeric_grad(loss, model.data), atol=1e-2, rtol=5e-2)

    def test_backward_without_forward_raises(self):
        model = MLP(2, 2, seed=0)
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((1, 2), dtype=np.float32))
        model(np.zeros((1, 2), dtype=np.float32))
        model.backward(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(RuntimeError):  # a pass is consumed by its backward
            model.backward(np.zeros((1, 2), dtype=np.float32))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_is_written_not_accumulated(self, shape, rng):
        """A second backward replaces the gradients, so a step needs no zeroing."""
        model = MLP(3, 2, hidden=SHAPES[shape], seed=0)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        g = rng.normal(size=(4, 2)).astype(np.float32)
        grads = []
        for _ in range(2):
            model(x)
            model.backward(g)
            grads.append(model.grad.tobytes())
        assert grads[0] == grads[1] and np.frombuffer(grads[0], np.float32).any()


class TestWorkspaces:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_training_passes_reuse_storage_and_evaluation_does_not(self, shape, rng):
        """Batch after batch a training pass lends the same buffers (a ragged
        batch takes their leading rows); ``training=False`` returns fresh arrays.
        Per layer: its output; per hidden layer: its ReLU mask and the
        gradient its successor passes back."""
        model = MLP(12, 3, hidden=SHAPES[shape], seed=0)
        outs, buffers = [], []
        for rows in (6, 6, 4):
            out = model(rng.normal(size=(rows, 12)).astype(np.float32), training=True)
            model.backward(np.ones_like(out))
            outs.append(out)
            buffers.append(dict(model._buffers))
        assert outs[2].shape == (4, 3)
        assert np.shares_memory(outs[0], outs[1]) and np.shares_memory(outs[0], outs[2])
        assert buffers[0].keys() == buffers[2].keys() and len(buffers[0]) == 1 + 3 * len(SHAPES[shape])
        assert all(buffers[0][k] is buffers[2][k] for k in buffers[0])
        fresh = model(rng.normal(size=(6, 12)).astype(np.float32), training=False)
        assert not np.shares_memory(fresh, outs[0])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_taller_batch_regrows_the_buffers(self, shape, rng):
        model = MLP(5, 4, hidden=SHAPES[shape], seed=0)
        for rows in (2, 7):
            x = rng.normal(size=(rows, 5)).astype(np.float32)
            assert model(x).tobytes() == model(x, training=False).tobytes()
            assert len(model._buffers[("y", 0)]) == rows

    def test_a_warm_training_step_allocates_no_array(self, rng):
        """Forward, loss gradient (over the logits), backward and SGD step on a
        sized model keep no array alive across operations. What tracemalloc
        still sees is transient: per-row scalars, and the iterator buffer NumPy
        takes for the broadcast bias add and the bool-mask multiply, at most one
        activation block. Fresh activations would hold five blocks at once."""
        model = MLP(192, 10, seed=0)  # hidden (128, 64)
        opt = SGD(model.data, model.grad, lr=0.1)
        x = rng.normal(size=(32, 192)).astype(np.float32)
        y = rng.integers(0, 10, size=32)

        def step(rows):
            logits = model(x[:rows], training=True)
            cross_entropy(logits, y[:rows], out=logits)
            model.backward(logits)
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


class TestTraining:
    def test_training_reduces_loss(self, rng):
        """A few SGD steps on a fixed batch should reduce cross-entropy."""
        model = MLP(8, 3, hidden=(16,), seed=0)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        labels = rng.integers(0, 3, size=32)
        opt = SGD(model.data, model.grad, lr=0.5)
        losses = []
        for _ in range(30):
            loss, g = cross_entropy(model(x), labels)
            model.backward(g)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.5
