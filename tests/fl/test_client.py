"""Tests for client local training (Alg. 1 LOCALTRAINING)."""

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.fl.client import Client
from repro.nn.models import build_mlp, build_small_cnn
from repro.nn.params import get_flat_params


@pytest.fixture
def shard():
    return make_dataset("synth-cifar10", 128, seed=0)


@pytest.fixture
def model():
    return build_mlp(3 * 8 * 8, 10, hidden=(32,), seed=0)


class TestClient:
    def test_delta_sign_convention(self, shard, model):
        """Δw = w_t − w_local: applying w_t − Δw must give the trained model."""
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = get_flat_params(model)
        res = client.local_train(model, w0, lr=0.1, epochs=1)
        trained = get_flat_params(model)
        np.testing.assert_allclose(w0 - res.delta, trained, atol=1e-6)

    def test_training_changes_params(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        res = client.local_train(model, get_flat_params(model), lr=0.1, epochs=1)
        assert np.linalg.norm(res.delta) > 0

    def test_more_epochs_more_batches(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = get_flat_params(model)
        r1 = client.local_train(model, w0, lr=0.01, epochs=1)
        r3 = client.local_train(model, w0, lr=0.01, epochs=3)
        assert r3.num_batches == 3 * r1.num_batches

    def test_loss_decreases_over_epochs(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = get_flat_params(model)
        res = client.local_train(model, w0, lr=0.2, epochs=8)
        # Mean loss across 8 epochs must beat a 1-epoch run's mean loss.
        res1 = client.local_train(model, w0, lr=0.2, epochs=1)
        assert res.mean_loss < res1.mean_loss

    def test_states_captured(self, shard):
        cnn = build_small_cnn(3, 8, 10, seed=0)
        client = Client(0, shard, 32, np.random.default_rng(0))
        res = client.local_train(cnn, get_flat_params(cnn), lr=0.05, epochs=1)
        assert len(res.state_arrays) == len(cnn.state_arrays())
        # Running stats must have moved away from init (mean 0).
        assert np.abs(res.state_arrays[0]).sum() > 0

    def test_empty_shard_rejected(self, shard):
        with pytest.raises(ValueError):
            Client(0, shard.subset(np.array([], dtype=int)), 8, np.random.default_rng(0))

    def test_num_samples(self, shard):
        client = Client(3, shard, 16, np.random.default_rng(0))
        assert client.num_samples == 128
        assert client.client_id == 3

    def test_deterministic_given_rng(self, shard, model):
        w0 = get_flat_params(model)
        c1 = Client(0, shard, 32, np.random.default_rng(5))
        r1 = c1.local_train(model, w0, lr=0.1, epochs=1)
        c2 = Client(0, shard, 32, np.random.default_rng(5))
        r2 = c2.local_train(model, w0, lr=0.1, epochs=1)
        np.testing.assert_array_equal(r1.delta, r2.delta)
