"""Tests for engine extensions: FedProx, server optimizers, downlink."""

import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.fl.algorithms import make_algorithm
from repro.fl.client import Client
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import run_experiment
from repro.network.cost import LinkSpec
from repro.nn.mlp import MLP

FAST = dict(num_train=500, num_test=150, rounds=5, num_clients=5, participation=0.6,
            lr=0.1, model="mlp", eval_every=2)


class TestFedProx:
    def test_proximal_term_shrinks_drift(self):
        """Large mu keeps the local model closer to the global anchor."""
        shard = make_dataset("synth-cifar10", 256, seed=0)
        model = MLP(192, 10, hidden=(32,), seed=0)
        w0 = model.data.copy()
        client = Client(0, shard, 64, np.random.default_rng(0))
        plain = client.local_train(model, w0, lr=0.2, epochs=3, proximal_mu=0.0)
        client2 = Client(0, shard, 64, np.random.default_rng(0))
        prox = client2.local_train(model, w0, lr=0.2, epochs=3, proximal_mu=1.0)
        assert np.linalg.norm(prox.delta) < np.linalg.norm(plain.delta)

    def test_mu_zero_identical_to_plain(self):
        shard = make_dataset("synth-cifar10", 128, seed=0)
        model = MLP(192, 10, hidden=(16,), seed=0)
        w0 = model.data.copy()
        r1 = Client(0, shard, 64, np.random.default_rng(1)).local_train(
            model, w0, lr=0.1, epochs=1
        )
        r2 = Client(0, shard, 64, np.random.default_rng(1)).local_train(
            model, w0, lr=0.1, epochs=1, proximal_mu=0.0
        )
        np.testing.assert_array_equal(r1.delta, r2.delta)

    def test_fedprox_end_to_end(self):
        cfg = ExperimentConfig(**FAST, proximal_mu=0.1, beta=0.1)
        h = run_experiment(cfg)
        assert h.final_accuracy() > 0.1

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(proximal_mu=-0.1)


class TestServerOptimizerIntegration:
    def test_default_sgd_matches_previous_semantics(self):
        """server_optimizer='sgd', momentum=0 reproduces the plain engine."""
        cfg = ExperimentConfig(**FAST)
        h1 = run_experiment(cfg)
        h2 = run_experiment(cfg.with_(server_optimizer="sgd", server_momentum=0.0))
        assert [r.test_accuracy for r in h1.records] == [r.test_accuracy for r in h2.records]

    def test_fedavgm_runs(self):
        cfg = ExperimentConfig(**FAST, server_momentum=0.9)
        assert run_experiment(cfg).final_accuracy() > 0.1

    def test_fedadam_runs(self):
        cfg = ExperimentConfig(**FAST, server_optimizer="adam", server_step=0.03)
        assert run_experiment(cfg).final_accuracy() > 0.1

    def test_bad_server_opt_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(server_optimizer="lamb")
        with pytest.raises(ValueError):
            ExperimentConfig(server_momentum=1.0)

    def test_server_opt_composes_with_opwa(self):
        cfg = ExperimentConfig(
            **FAST, algorithm="bcrs_opwa", compression_ratio=0.1, server_momentum=0.5
        )
        assert run_experiment(cfg).final_accuracy() > 0.1


class TestDownlink:
    LINKS = [LinkSpec(1e6, 0.1), LinkSpec(2e6, 0.05)]
    FREQS = np.array([0.5, 0.5])
    V = 32e5

    def test_downlink_adds_time(self):
        base = ExperimentConfig(algorithm="topk", compression_ratio=0.1)
        with_dl = base.with_(include_downlink=True)
        t0 = make_algorithm(base).plan(self.LINKS, self.FREQS, self.V).times
        t1 = make_algorithm(with_dl).plan(self.LINKS, self.FREQS, self.V).times
        assert t1.actual > t0.actual
        assert t1.maximum > t0.maximum

    def test_downlink_applies_to_bcrs(self):
        base = ExperimentConfig(algorithm="bcrs", compression_ratio=0.1)
        with_dl = base.with_(include_downlink=True)
        t0 = make_algorithm(base).plan(self.LINKS, self.FREQS, self.V).times
        t1 = make_algorithm(with_dl).plan(self.LINKS, self.FREQS, self.V).times
        assert t1.actual > t0.actual

    def test_simulation_with_downlink(self):
        cfg = ExperimentConfig(**FAST, include_downlink=True)
        h = run_experiment(cfg)
        assert h.time.actual_total > 0
