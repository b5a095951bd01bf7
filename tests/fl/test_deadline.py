"""Tests for the deadline-drop straggler policy."""

import numpy as np
import pytest

from repro.fl.algorithms import make_algorithm
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import run_experiment
from repro.network.cost import LinkSpec, sparse_uplink_time

LINKS = [LinkSpec(4e6, 0.05), LinkSpec(2e6, 0.08), LinkSpec(1e6, 0.1), LinkSpec(0.2e6, 0.15)]
FREQS = np.array([0.25, 0.25, 0.25, 0.25])
V = 32e5


def plan(**cfg_kwargs):
    cfg = ExperimentConfig(algorithm="deadline_topk", **cfg_kwargs)
    return make_algorithm(cfg).plan(LINKS, FREQS, V)


class TestDeadlinePlan:
    def test_straggler_dropped(self):
        p = plan(compression_ratio=0.1, deadline_quantile=0.5)
        assert p.weights[3] == 0.0  # the 0.2 Mbit/s straggler misses the deadline
        assert p.weights.sum() == pytest.approx(1.0)

    def test_surviving_weights_renormalized(self):
        p = plan(compression_ratio=0.1, deadline_quantile=0.5)
        survivors = p.weights[p.weights > 0]
        np.testing.assert_allclose(survivors, survivors[0])

    def test_actual_time_is_deadline(self):
        p = plan(compression_ratio=0.1, deadline_quantile=0.5)
        compressed = [sparse_uplink_time(link, V, 0.1) for link in LINKS]
        assert p.times.actual == pytest.approx(float(np.quantile(compressed, 0.5)))
        assert p.times.actual < max(compressed)

    def test_quantile_one_keeps_everyone(self):
        p = plan(compression_ratio=0.1, deadline_quantile=1.0)
        assert np.all(p.weights > 0)

    def test_small_quantile_keeps_at_least_fastest(self):
        p = plan(compression_ratio=0.1, deadline_quantile=0.01)
        assert (p.weights > 0).sum() >= 1
        assert p.weights.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(deadline_quantile=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(deadline_quantile=1.5)


class TestDeadlineEndToEnd:
    def test_runs_and_learns(self):
        cfg = ExperimentConfig(
            num_train=500, num_test=150, rounds=8, num_clients=6, participation=0.67,
            lr=0.1, model="mlp", eval_every=4,
            algorithm="deadline_topk", compression_ratio=0.2,
        )
        h = run_experiment(cfg)
        assert h.final_accuracy() > 0.15

    def test_cheaper_rounds_than_plain_topk(self):
        base = dict(
            num_train=400, num_test=100, rounds=5, num_clients=6, participation=0.67,
            lr=0.1, model="mlp", eval_every=5, compression_ratio=0.2,
        )
        h_topk = run_experiment(ExperimentConfig(**base, algorithm="topk"))
        h_dead = run_experiment(ExperimentConfig(**base, algorithm="deadline_topk"))
        assert h_dead.time.actual_total < h_topk.time.actual_total
