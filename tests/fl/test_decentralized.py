"""Tests for the decentralized gossip engine."""

import hashlib

import numpy as np
import pytest

from repro.experiments import bench_config
from repro.fl.config import ExperimentConfig
from repro.fl.context import SimulationContext
from repro.fl.decentralized import (
    DecentralizedSimulation,
    mixing_matrix,
    random_regular_edges,
    ring_edges,
)

FAST = dict(num_train=400, num_test=120, rounds=4, num_clients=4,
            lr=0.1, model="mlp", eval_every=2, compression_ratio=0.2, beta=0.5)


class TestTopologies:
    def test_ring_edges(self):
        edges = ring_edges(4)
        assert len(edges) == 4
        assert (0, 1) in edges and (3, 0) in edges

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring_edges(1)

    def test_random_regular(self):
        edges = random_regular_edges(8, 3, seed=0)
        deg = np.zeros(8, int)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        np.testing.assert_array_equal(deg, 3)

    def test_random_regular_degree_bound(self):
        with pytest.raises(ValueError):
            random_regular_edges(4, 4)


class TestMixingMatrix:
    def test_doubly_stochastic(self):
        w = mixing_matrix(5, ring_edges(5))
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.all(w >= -1e-12)

    def test_respects_topology(self):
        w = mixing_matrix(5, ring_edges(5))
        assert w[0, 2] == 0.0  # not neighbors on the ring
        assert w[0, 1] > 0.0

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            mixing_matrix(3, [(0, 0)])
        with pytest.raises(ValueError):
            mixing_matrix(3, [(0, 5)])

    def test_spectral_gap_enables_consensus(self):
        """Second-largest eigenvalue modulus < 1 on a connected graph."""
        w = mixing_matrix(6, ring_edges(6))
        eigs = np.sort(np.abs(np.linalg.eigvals(w)))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
        assert eigs[-2] < 1.0


class TestGossipDynamics:
    def test_pure_gossip_reaches_consensus(self):
        """Without training, repeated mixing shrinks disagreement."""
        sim = DecentralizedSimulation(ExperimentConfig(**{**FAST, "compression_ratio": 1.0}))
        # Give clients different initial params.
        rng = np.random.default_rng(0)
        sim.params += rng.normal(0, 0.1, size=sim.params.shape).astype(np.float32)
        d0 = sim.consensus_distance()
        sim.run(8, train=False)
        assert sim.consensus_distance() < 0.3 * d0

    def test_training_improves_mean_accuracy(self):
        cfg = ExperimentConfig(**{**FAST, "rounds": 15, "eval_every": 15})
        sim = DecentralizedSimulation(cfg)
        first = sim.mean_accuracy()
        sim.run()
        assert sim.history[-1].mean_accuracy > first + 0.1

    def test_records_and_times(self):
        sim = DecentralizedSimulation(ExperimentConfig(**FAST))
        recs = sim.run()
        assert len(recs) == 4
        assert all(r.comm_time > 0 for r in recs)
        evals = [r.round_index for r in recs if r.mean_accuracy is not None]
        assert evals == [0, 2, 3]

    def test_determinism(self):
        cfg = ExperimentConfig(**FAST)
        a = DecentralizedSimulation(cfg)
        b = DecentralizedSimulation(cfg)
        a.run(2)
        b.run(2)
        np.testing.assert_array_equal(a.params, b.params)

    def test_custom_topology(self):
        edges = random_regular_edges(4, 3, seed=1)  # fully-connected K4
        sim = DecentralizedSimulation(ExperimentConfig(**FAST), edges=edges)
        sim.run(1)
        assert sim.mixing[0, 1] > 0


def gossip_digest(sim) -> str:
    """Final per-client parameters and every round record, hashed."""
    h = hashlib.sha256(np.ascontiguousarray(sim.params).tobytes())
    for r in sim.history:
        h.update(repr((r.round_index, r.mean_accuracy, r.consensus_distance, r.comm_time)).encode())
    return h.hexdigest()[:16]


class TestWorld:
    def test_example_ring_run_is_pinned(self):
        """examples/decentralized_gossip.py's config, 3 rounds on the 8-client ring."""
        cfg = bench_config(
            "cifar10", "topk", beta=0.5, compression_ratio=0.1, rounds=3,
        ).with_(num_clients=8, eval_every=20)
        sim = DecentralizedSimulation(cfg, edges=ring_edges(8))
        sim.run()
        assert gossip_digest(sim) == "7d08e5044e762f2e"

    def test_partition_follows_the_config(self):
        cfg = ExperimentConfig(**{**FAST, "partition": "iid"})
        sim = DecentralizedSimulation(cfg)
        sizes = [sim.clients[cid].num_samples for cid in range(cfg.num_clients)]
        assert sizes == SimulationContext.build(cfg).population.data_sizes.tolist()
        assert sizes == [100] * 4
