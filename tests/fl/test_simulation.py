"""Integration tests for the simulation engine."""

import numpy as np
import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation, run_experiment

FAST = dict(
    num_train=600,
    num_test=200,
    rounds=6,
    num_clients=6,
    participation=0.5,
    lr=0.1,
    model="mlp",
    eval_every=2,
)


class TestSimulationConstruction:
    def test_partition_covers_clients(self):
        sim = Simulation(ExperimentConfig(**FAST))
        assert len(sim.clients) == 6
        assert sum(c.num_samples for c in sim.clients) == 600

    def test_links_sampled(self):
        sim = Simulation(ExperimentConfig(**FAST))
        assert len(sim.links) == 6
        assert all(link.bandwidth_bps > 0 for link in sim.links)

    def test_volume_matches_model(self):
        sim = Simulation(ExperimentConfig(**FAST))
        assert sim.volume_bits == sim.model.data.size * 32

    @pytest.mark.parametrize("partition", ["dirichlet", "iid", "shard"])
    def test_all_partitions_build(self, partition):
        Simulation(ExperimentConfig(**{**FAST, "partition": partition}))


class TestRoundExecution:
    def test_round_record_fields(self):
        sim = Simulation(ExperimentConfig(**FAST))
        rec = sim.run_round()
        assert rec.round_index == 0
        assert len(rec.selected) == 3
        assert rec.test_accuracy is not None  # round 0 evaluates
        assert rec.times.actual > 0
        assert rec.train_seconds > 0

    def test_eval_cadence(self):
        sim = Simulation(ExperimentConfig(**FAST))
        h = sim.run()
        evals = [r.round_index for r in h.records if r.test_accuracy is not None]
        assert evals == [0, 2, 4, 5]  # every 2 plus the final round

    def test_params_change_every_round(self):
        sim = Simulation(ExperimentConfig(**FAST))
        before = sim.global_params.copy()
        sim.run_round()
        assert not np.array_equal(before, sim.global_params)

    def test_training_improves_over_chance(self):
        cfg = ExperimentConfig(**{**FAST, "rounds": 25, "eval_every": 25})
        h = run_experiment(cfg)
        assert h.final_accuracy() > 0.3  # chance is 0.1

    def test_determinism_same_seed(self):
        cfg = ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.2)
        h1 = run_experiment(cfg)
        h2 = run_experiment(cfg)
        a1 = [r.test_accuracy for r in h1.records]
        a2 = [r.test_accuracy for r in h2.records]
        assert a1 == a2

    def test_different_seed_differs(self):
        cfg = ExperimentConfig(**FAST)
        h1 = run_experiment(cfg)
        h2 = run_experiment(cfg.with_(seed=99))
        assert [r.test_accuracy for r in h1.records] != [r.test_accuracy for r in h2.records]


class TestAlgorithmsEndToEnd:
    @pytest.mark.parametrize("alg", ["fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"])
    def test_all_algorithms_run(self, alg):
        cfg = ExperimentConfig(**FAST, algorithm=alg, compression_ratio=0.1)
        h = run_experiment(cfg)
        assert len(h) == 6
        assert 0.0 <= h.final_accuracy() <= 1.0

    def test_sparse_ratios_realized(self):
        cfg = ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.1)
        sim = Simulation(cfg)
        rec = sim.run_round()
        for r in rec.ratios:
            assert r == pytest.approx(0.1, rel=0.2)

    def test_bcrs_ratios_heterogeneous(self):
        cfg = ExperimentConfig(**FAST, algorithm="bcrs", compression_ratio=0.05)
        sim = Simulation(cfg)
        rec = sim.run_round()
        assert max(rec.ratios) > min(rec.ratios)

    def test_overlap_recorded_for_sparse(self):
        cfg = ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.05)
        sim = Simulation(cfg)
        rec = sim.run_round()
        assert rec.singleton_fraction is not None
        assert 0.0 <= rec.singleton_fraction <= 1.0

    def test_fedavg_no_singleton_metric(self):
        sim = Simulation(ExperimentConfig(**FAST))
        rec = sim.run_round()
        assert rec.singleton_fraction is None

    def test_time_accounting_monotone(self):
        cfg = ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.1)
        h = run_experiment(cfg)
        assert h.time.actual_total <= h.time.max_total
        assert h.time.min_total <= h.time.actual_total

    def test_time_varying_links(self):
        cfg = ExperimentConfig(**FAST, time_varying_links=True, link_volatility=0.3)
        sim = Simulation(cfg)
        bw0 = [link.bandwidth_bps for link in sim.links]
        sim.run_round()
        bw1 = [link.bandwidth_bps for link in sim.links]
        assert bw0 != bw1
