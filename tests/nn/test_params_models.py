"""Tests for flat-parameter packing and the model builders."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import BACKENDS
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.nn.layers import Linear
from repro.nn.losses import cross_entropy
from repro.nn.models import MODEL_BUILDERS, build_mlp, build_model
from repro.nn.optim import SGD
from repro.nn.params import (
    get_flat_params,
    num_parameters,
    set_flat_params,
)
from tests.conftest import is_aliased


class TestFlatParams:
    def test_roundtrip(self, rng):
        model = build_mlp(10, 3, hidden=(7,), seed=0)
        flat = get_flat_params(model)
        assert flat.shape == (num_parameters(model),)
        flat2 = rng.normal(size=flat.shape).astype(np.float32)
        set_flat_params(model, flat2)
        np.testing.assert_array_equal(get_flat_params(model), flat2)

    def test_flat_vector_covers_every_parameter_in_order(self):
        model = build_mlp(6, 2, hidden=(4,), seed=0)
        total = num_parameters(model)
        set_flat_params(model, np.arange(total, dtype=np.float32))
        start = 0
        for p in model.parameters():
            np.testing.assert_array_equal(p.data.ravel(), np.arange(start, start + p.data.size))
            start += p.data.size
        assert start == total

    def test_set_rejects_wrong_size(self):
        model = build_mlp(4, 2, hidden=(3,), seed=0)
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros(3, dtype=np.float32))


class TestFlatStorage:
    @pytest.mark.parametrize("name", MODEL_BUILDERS)
    def test_rehoming_keeps_values_and_layout(self, name, rng):
        model = build_model(name, in_channels=3, image_size=8, num_classes=4, seed=1)
        for p in model.parameters():
            p.grad[...] = rng.normal(size=p.grad.shape)
        want_data = np.concatenate([p.data.ravel() for p in model.parameters()])
        want_grad = np.concatenate([p.grad.ravel() for p in model.parameters()])
        data, grad = model.flat()
        assert data.dtype == grad.dtype == np.float32
        np.testing.assert_array_equal(data, want_data)
        np.testing.assert_array_equal(grad, want_grad)
        assert model.flat()[0] is data  # re-homed once
        assert is_aliased(model)

    def test_writes_go_both_ways(self):
        model = build_mlp(4, 2, hidden=(3,), seed=0)
        data, _ = model.flat()
        head = model.parameters()[-1]
        head.data[...] = 7.0
        assert (data[-head.size :] == 7.0).all()
        set_flat_params(model, np.arange(data.size, dtype=np.float32))
        np.testing.assert_array_equal(head.data, data[-head.size :])

    def test_append_rehomes(self, rng):
        model = build_mlp(4, 3, hidden=(3,), seed=0)
        before = num_parameters(model)
        model.append(Linear(3, 2, rng))
        assert num_parameters(model) == before + 8
        assert is_aliased(model)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)),
                                       lambda m: pickle.loads(pickle.dumps(m, protocol=5))],
                             ids=["deepcopy", "pickle", "pickle5"])
    def test_copies_are_realiased_and_independent(self, clone):
        model = build_mlp(3 * 8 * 8, 4, seed=0)
        original = get_flat_params(model)
        twin = clone(model)
        np.testing.assert_array_equal(get_flat_params(twin), original)
        assert is_aliased(twin)
        assert not np.shares_memory(twin.flat()[0], model.flat()[0])
        twin.parameters()[0].grad[...] = 1.0
        SGD(*twin.flat(), lr=0.5).step()  # steps the twin's buffer, the one its layers read
        assert twin.parameters()[0].data.ravel()[0] == twin.flat()[0][0] != original[0]
        np.testing.assert_array_equal(get_flat_params(model), original)
        assert is_aliased(model)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model_name", ["mlp"])
    def test_aliasing_survives_train_evaluate_restore(self, model_name, backend):
        config = ExperimentConfig(dataset="synth-cifar10", model=model_name, num_clients=4, num_train=200,
                                  num_test=50, rounds=2, seed=0, backend=backend, workers=2)
        with Simulation(config) as sim:
            params = get_flat_params(sim.model)
            sim.run()
            assert is_aliased(sim.model)
            sim.evaluate()
            assert is_aliased(sim.model)
            set_flat_params(sim.model, params)
            assert is_aliased(sim.model)
            np.testing.assert_array_equal(sim.model.flat()[0], params)


def train_grads(model, x, labels, *, input_grad: bool):
    """Flat parameter gradient of one training forward/backward."""
    _, grad = model.flat()
    grad.fill(0)
    _, g = cross_entropy(model(x, training=True), labels)
    model.backward(g, input_grad=input_grad)
    return grad.copy()


CLONES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
}


class TestDerivedCaches:
    """The ``input_grad=False`` walk is kept beside ``_flat`` and dropped
    with it: by ``append`` and by copying."""

    def batch(self, rng, n=6):
        x = rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
        return x, rng.integers(0, 4, size=n)

    def test_walk_is_built_once(self, rng):
        model = build_mlp(3 * 8 * 8, 4, hidden=(6, 5), seed=0)
        x, labels = self.batch(rng)
        want = train_grads(model, x, labels, input_grad=True)
        assert model._train_walk is None  # a full backward does not build it
        np.testing.assert_array_equal(train_grads(model, x, labels, input_grad=False), want)
        walk = model._train_walk
        head, tail = walk
        assert head is model.layers[1]  # the first Linear; Flatten is never walked
        assert list(tail) == model.layers[:1:-1]
        np.testing.assert_array_equal(train_grads(model, x, labels, input_grad=False), want)
        assert model._train_walk is walk

    def test_append_drops_the_walk(self, rng):
        model = build_mlp(3 * 8 * 8, 5, hidden=(6,), seed=0)
        x, labels = self.batch(rng)
        train_grads(model, x, labels, input_grad=False)  # walk cached without the new tail
        tail = Linear(5, 4, rng)
        model.append(tail)
        got = train_grads(model, x, labels, input_grad=False)
        assert np.any(tail.weight.grad != 0)  # the appended layer is walked
        np.testing.assert_array_equal(got, train_grads(model, x, labels, input_grad=True))

    @pytest.mark.parametrize("how", CLONES)
    def test_copies_walk_their_own_layers(self, how, rng):
        model = build_mlp(3 * 8 * 8, 4, hidden=(6,), seed=0)
        x, labels = self.batch(rng)
        want = train_grads(model, x, labels, input_grad=False)  # warm the walk
        twin = CLONES[how](model)
        assert twin._train_walk is None
        model.flat()[1].fill(0)
        np.testing.assert_array_equal(train_grads(twin, x, labels, input_grad=False), want)
        assert not model.flat()[1].any()  # the original's layers were not walked

    def test_nested_container_as_head(self, rng):
        from repro.nn.layers import Flatten, ReLU
        from repro.nn.sequential import Sequential

        def build():
            r = np.random.default_rng(3)
            stem = Sequential(Linear(3 * 8 * 8, 7, r), ReLU())
            return Sequential(Flatten(), stem, Linear(7, 4, r)), stem

        x, labels = self.batch(rng)
        model, stem = build()
        want = train_grads(build()[0], x, labels, input_grad=True)
        for _ in range(2):  # second pass runs on both containers' cached walks
            np.testing.assert_array_equal(train_grads(model, x, labels, input_grad=False), want)
        assert model._train_walk[0] is stem and stem._train_walk is not None
        twin = copy.deepcopy(model)
        assert twin.layers[1]._train_walk is None  # nested copies drop theirs too
        np.testing.assert_array_equal(train_grads(twin, x, labels, input_grad=False), want)


class TestModelZoo:
    def test_mlp_output_shape(self, rng):
        model = build_mlp(12, 5, seed=0)
        out = model(rng.normal(size=(3, 12)).astype(np.float32), training=False)
        assert out.shape == (3, 5)

    def test_same_seed_same_init(self):
        a = get_flat_params(build_mlp(6, 2, seed=42))
        b = get_flat_params(build_mlp(6, 2, seed=42))
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_init(self):
        a = get_flat_params(build_mlp(6, 2, seed=1))
        b = get_flat_params(build_mlp(6, 2, seed=2))
        assert not np.array_equal(a, b)

    def test_registry_dispatch(self):
        m = build_model("mlp", in_channels=3, image_size=4, num_classes=2, seed=0)
        assert num_parameters(m) > 0
        with pytest.raises(KeyError):
            build_model("nope", in_channels=1, image_size=4, num_classes=2)

    @given(st.sampled_from(sorted(MODEL_BUILDERS)))
    @settings(max_examples=6, deadline=None)
    def test_all_models_trainable_one_step(self, name):
        rng = np.random.default_rng(0)
        model = build_model(name, in_channels=3, image_size=8, num_classes=4, seed=0)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=4)
        before = get_flat_params(model).copy()
        opt = SGD(*model.flat(), lr=0.01)
        logits = model(x, training=True)
        loss0, g = cross_entropy(logits, labels)
        model.backward(g)
        opt.step()
        assert not np.array_equal(get_flat_params(model), before)

    def test_training_reduces_loss(self, rng):
        """A few SGD steps on a fixed batch should reduce cross-entropy."""
        model = build_mlp(8, 3, hidden=(16,), seed=0)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        labels = rng.integers(0, 3, size=32)
        opt = SGD(*model.flat(), lr=0.5)
        losses = []
        for _ in range(30):
            loss, g = cross_entropy(model(x), labels)
            model.backward(g)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.5
