"""Tests for the algorithm presets' round plans."""

import numpy as np
import pytest

from repro.fl.algorithms import make_algorithm
from repro.fl.config import ExperimentConfig
from repro.network.cost import LinkSpec, sparse_uplink_time, uplink_time

V = 32e5
LINKS = [LinkSpec(2e6, 0.05), LinkSpec(1e6, 0.10), LinkSpec(0.5e6, 0.15)]
FREQS = np.array([0.5, 0.3, 0.2])


def plan_for(algorithm, **cfg_kwargs):
    cfg = ExperimentConfig(algorithm=algorithm, **cfg_kwargs)
    return make_algorithm(cfg).plan(LINKS, FREQS, V)


class TestFedAvgPlan:
    def test_dense_and_fweighted(self):
        plan = plan_for("fedavg")
        assert plan.ratios is None
        np.testing.assert_allclose(plan.weights, FREQS)
        assert not plan.use_opwa

    def test_actual_is_dense_straggler(self):
        plan = plan_for("fedavg")
        expected = max(uplink_time(link, V) for link in LINKS)
        assert plan.times.actual == pytest.approx(expected)
        assert plan.times.maximum == plan.times.actual


class TestTopKPlan:
    def test_uniform_ratios(self):
        plan = plan_for("topk", compression_ratio=0.1)
        np.testing.assert_allclose(plan.ratios, 0.1)
        np.testing.assert_allclose(plan.weights, FREQS)

    def test_actual_is_compressed_straggler(self):
        plan = plan_for("topk", compression_ratio=0.1)
        expected = max(sparse_uplink_time(link, V, 0.1) for link in LINKS)
        assert plan.times.actual == pytest.approx(expected)

    def test_maximum_is_uncompressed_straggler(self):
        """Sec. 5.2: Max Time accumulates FedAvg's (dense) transmission cost."""
        plan = plan_for("topk", compression_ratio=0.01)
        expected = max(uplink_time(link, V) for link in LINKS)
        assert plan.times.maximum == pytest.approx(expected)
        assert plan.times.actual < plan.times.maximum

    def test_eftopk_uses_ef_compressor(self):
        cfg = ExperimentConfig(algorithm="eftopk", compression_ratio=0.1)
        assert make_algorithm(cfg).compressor_name == "ef_topk"


class TestBCRSPlan:
    def test_ratios_scheduled_not_uniform(self):
        plan = plan_for("bcrs", compression_ratio=0.01)
        assert plan.ratios is not None
        assert plan.ratios[0] > plan.ratios[2]  # faster link, higher ratio

    def test_weights_bounded_by_alpha(self):
        plan = plan_for("bcrs", compression_ratio=0.01, alpha=0.3)
        assert np.all(plan.weights <= 0.3 + 1e-12)

    def test_actual_equals_topk_straggler(self):
        """BCRS's benchmark equals the slowest client's uniform-CR time, so
        its per-round actual time matches TopK's — the win is in information
        per round, not per-round time."""
        bcrs = plan_for("bcrs", compression_ratio=0.1)
        topk = plan_for("topk", compression_ratio=0.1)
        assert bcrs.times.actual == pytest.approx(topk.times.actual)

    def test_opwa_flag(self):
        assert not plan_for("bcrs", compression_ratio=0.1).use_opwa
        assert plan_for("bcrs_opwa", compression_ratio=0.1).use_opwa

    def test_median_benchmark_propagates(self):
        plan = plan_for("bcrs", compression_ratio=0.1, benchmark="median")
        # With a median benchmark, the slowest client is clipped at CR*.
        assert plan.ratios[2] == pytest.approx(0.1)
