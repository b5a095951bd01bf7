"""Tests for history persistence and model checkpoints."""

import csv

import numpy as np
import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.history_io import (
    export_curves_csv,
    history_from_dict,
    history_to_dict,
    load_history,
    save_history,
)

FAST = dict(num_train=400, num_test=100, rounds=4, num_clients=4, participation=0.5,
            lr=0.1, model="mlp", eval_every=2)


@pytest.fixture
def sim():
    s = Simulation(ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.2))
    s.run()
    return s


class TestHistoryIO:
    def test_dict_roundtrip(self, sim):
        data = history_to_dict(sim.history)
        back = history_from_dict(data)
        assert len(back) == len(sim.history)
        for a, b in zip(sim.history.records, back.records):
            assert a.round_index == b.round_index
            assert a.test_accuracy == b.test_accuracy
            assert a.times.actual == b.times.actual
            assert a.ratios == b.ratios
        assert back.time.actual_total == pytest.approx(sim.history.time.actual_total)

    def test_file_roundtrip(self, sim, tmp_path):
        p = tmp_path / "h.json"
        save_history(sim.history, p)
        back = load_history(p)
        assert back.final_accuracy() == sim.history.final_accuracy()
        assert back.time_to_accuracy(0.2) == sim.history.time_to_accuracy(0.2)

    def test_csv_export(self, sim, tmp_path):
        p = tmp_path / "curve.csv"
        export_curves_csv(sim.history, p)
        with open(p) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["round", "cumulative_actual_time_s", "virtual_time_s", "test_accuracy"]
        assert len(rows) == 1 + len(sim.history)
        # Both time columns are non-decreasing.
        times = [float(r[1]) for r in rows[1:]]
        assert times == sorted(times)
        virt = [float(r[2]) for r in rows[1:]]
        assert virt == sorted(virt)

    def test_sim_span_fields_roundtrip(self, sim, tmp_path):
        p = tmp_path / "h.json"
        save_history(sim.history, p)
        back = load_history(p)
        for a, b in zip(sim.history.records, back.records):
            assert a.sim_start == b.sim_start
            assert a.sim_end == b.sim_end
            assert a.mean_staleness == b.mean_staleness
            assert a.times.downlink == b.times.downlink

    def test_pre_scheduler_files_load(self, sim, tmp_path):
        """JSON written before the virtual clock existed still loads."""
        data = history_to_dict(sim.history)
        for rec in data["records"]:
            del rec["sim_start"], rec["sim_end"], rec["mean_staleness"]
            del rec["times"]["downlink"]
        back = history_from_dict(data)
        assert back.records[0].sim_start is None
        assert back.records[0].times.downlink == 0.0
        # accuracy_vs_simtime falls back to the comm axis on old files.
        t, acc = back.accuracy_vs_simtime()
        t2, acc2 = back.accuracy_vs_time()
        np.testing.assert_array_equal(t, t2)


class TestCheckpoint:
    def test_roundtrip(self, sim, tmp_path):
        p = tmp_path / "ckpt.npz"
        save_checkpoint(sim, p)
        fresh = Simulation(ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.2))
        assert not np.array_equal(fresh.global_params, sim.global_params)
        load_checkpoint(fresh, p)
        np.testing.assert_array_equal(fresh.global_params, sim.global_params)
        assert fresh.round_index == sim.round_index

    def test_resume_training(self, sim, tmp_path):
        p = tmp_path / "ckpt.npz"
        save_checkpoint(sim, p)
        fresh = Simulation(ExperimentConfig(**FAST, algorithm="topk", compression_ratio=0.2))
        load_checkpoint(fresh, p)
        rec = fresh.run_round()
        assert rec.round_index == sim.round_index

    def test_shape_mismatch_rejected(self, sim, tmp_path):
        p = tmp_path / "ckpt.npz"
        save_checkpoint(sim, p)
        other = Simulation(ExperimentConfig(**{**FAST, "dataset": "synth-cifar100"}))  # other head
        with pytest.raises(ValueError):
            load_checkpoint(other, p)
