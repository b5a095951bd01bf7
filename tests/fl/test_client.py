"""Tests for client local training (Alg. 1 LOCALTRAINING)."""

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.data.partition import dirichlet_partition, iid_partition
from repro.fl.client import Client
from repro.nn.mlp import MLP


@pytest.fixture
def shard():
    return make_dataset("synth-cifar10", 128, seed=0)


@pytest.fixture
def model():
    return MLP(3 * 8 * 8, 10, hidden=(32,), seed=0)


class TestClient:
    def test_delta_sign_convention(self, shard, model):
        """Δw = w_t − w_local: applying w_t − Δw must give the trained model."""
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = model.data.copy()
        res = client.local_train(model, w0, lr=0.1, epochs=1)
        trained = model.data.copy()
        np.testing.assert_allclose(w0 - res.delta, trained, atol=1e-6)

    def test_training_changes_params(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        res = client.local_train(model, model.data.copy(), lr=0.1, epochs=1)
        assert np.linalg.norm(res.delta) > 0

    def test_more_epochs_more_batches(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = model.data.copy()
        r1 = client.local_train(model, w0, lr=0.01, epochs=1)
        r3 = client.local_train(model, w0, lr=0.01, epochs=3)
        assert r3.num_batches == 3 * r1.num_batches

    def test_loss_decreases_over_epochs(self, shard, model):
        client = Client(0, shard, 32, np.random.default_rng(0))
        w0 = model.data.copy()
        res = client.local_train(model, w0, lr=0.2, epochs=8)
        # Mean loss across 8 epochs must beat a 1-epoch run's mean loss.
        res1 = client.local_train(model, w0, lr=0.2, epochs=1)
        assert res.mean_loss < res1.mean_loss

    @pytest.mark.parametrize("size", [-1, 1], ids=["short", "long"])
    def test_a_parameter_vector_of_the_wrong_size_is_refused(self, shard, model, size):
        client = Client(0, shard, 32, np.random.default_rng(0))
        with pytest.raises(ValueError):
            client.local_train(model, np.zeros(model.data.size + size, dtype=np.float32), lr=0.1, epochs=1)

    def test_empty_shard_rejected(self, shard):
        with pytest.raises(ValueError):
            Client(0, shard.subset(np.array([], dtype=int)), 8, np.random.default_rng(0))

    def test_num_samples(self, shard):
        client = Client(3, shard, 16, np.random.default_rng(0))
        assert client.num_samples == 128
        assert client.client_id == 3

    def test_deterministic_given_rng(self, shard, model):
        w0 = model.data.copy()
        c1 = Client(0, shard, 32, np.random.default_rng(5))
        r1 = c1.local_train(model, w0, lr=0.1, epochs=1)
        c2 = Client(0, shard, 32, np.random.default_rng(5))
        r2 = c2.local_train(model, w0, lr=0.1, epochs=1)
        np.testing.assert_array_equal(r1.delta, r2.delta)


def mean_pairwise_cosine(updates: list[np.ndarray]) -> float:
    unit = np.stack([u / np.linalg.norm(u) for u in updates]).astype(np.float64)
    sim = unit @ unit.T
    n = len(updates)
    return float((sim.sum() - np.trace(sim)) / (n * (n - 1)))


def test_noniid_clients_less_aligned_than_iid():
    """The paper's premise, measured: Dirichlet(0.1) client updates are less
    mutually aligned than IID client updates."""
    ds = make_dataset("synth-cifar10", 1500, seed=0)
    model = MLP(192, 10, hidden=(32,), seed=0)
    w0 = model.data.copy()

    def client_updates(partition):
        updates = []
        for cid, ix in enumerate(partition.client_indices[:5]):
            c = Client(cid, ds.subset(ix), 64, np.random.default_rng(cid))
            updates.append(c.local_train(model, w0, lr=0.1, epochs=1).delta)
        return updates

    iid_cos = mean_pairwise_cosine(client_updates(iid_partition(ds.y, 5, seed=1)))
    skew_cos = mean_pairwise_cosine(client_updates(dirichlet_partition(ds.y, 5, 0.1, seed=1)))
    assert skew_cos < iid_cos
