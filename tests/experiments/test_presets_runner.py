"""Tests for experiment presets, one-axis grids and reporting."""

import pytest

from repro.experiments import run_grid
from repro.experiments.paper_reference import TABLE2, TABLE3, TABLE4
from repro.experiments.presets import DATASET_NAME_MAP, bench_config, paper_config
from repro.viz.ascii import format_table, series_text
from repro.fl.simulation import Simulation, run_experiment
from repro.io.history_io import history_to_dict

ALGS = ("fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa")
SMALL = dict(rounds=4, num_train=400, num_test=150, eval_every=2)


class TestPresets:
    def test_paper_setting(self):
        cfg = paper_config("cifar10", "bcrs", beta=0.1, compression_ratio=0.01)
        assert cfg.dataset == "synth-cifar10"
        assert cfg.num_clients == 10
        assert cfg.participation == 0.5
        assert cfg.batch_size == 64
        assert cfg.local_epochs == 1
        assert cfg.rounds == 200
        assert cfg.compression_ratio == 0.01
        assert cfg.alpha == 0.3

    def test_fedavg_forces_dense(self):
        cfg = paper_config("svhn", "fedavg", compression_ratio=0.01)
        assert cfg.compression_ratio == 1.0

    def test_dataset_name_mapping(self):
        for paper_name, synth in DATASET_NAME_MAP.items():
            assert paper_config(paper_name, "topk").dataset == synth
        # Synthetic names pass through.
        assert paper_config("synth-svhn", "topk").dataset == "synth-svhn"

    def test_bench_config_is_smaller(self):
        b = bench_config("cifar10", "topk")
        p = paper_config("cifar10", "topk")
        assert b.rounds < p.rounds
        assert b.num_train <= p.num_train

    def test_overrides_win(self):
        cfg = bench_config("cifar10", "bcrs_opwa", gamma=3.0, rounds=5)
        assert cfg.gamma == 3.0
        assert cfg.rounds == 5


def digestable(history) -> dict:
    """The history as a dict with wall-clock fields zeroed (what
    ``repro.testing.goldens`` compares)."""
    d = history_to_dict(history)
    for rec in d["records"]:
        rec["train_seconds"] = rec["compress_seconds"] = 0.0
    return d


class TestRunner:
    def test_algorithm_grid_runs_every_cell(self):
        base = paper_config("cifar10", "topk", compression_ratio=0.1, **SMALL)
        results = run_grid(base, {"algorithm": ["fedavg", "topk"]}).by_axis("algorithm")
        assert set(results) == {"fedavg", "topk"}
        for h in results.values():
            assert len(h) == 4

    def test_comparison_shares_seed(self):
        """Same seed => same client selection sequence across algorithms."""
        base = paper_config("cifar10", "topk", compression_ratio=0.1, **SMALL)
        results = run_grid(base, {"algorithm": ["fedavg", "topk"]}).by_axis("algorithm")
        sel_a = [r.selected for r in results["fedavg"].records]
        sel_b = [r.selected for r in results["topk"].records]
        assert sel_a == sel_b

    def test_sweep(self):
        base = paper_config("cifar10", "bcrs_opwa", compression_ratio=0.1, **SMALL)
        out = run_grid(base, {"gamma": [3.0, 5.0]}).by_axis("gamma")
        assert set(out) == {3.0, 5.0}

    @pytest.mark.parametrize(
        "base_algorithm,algorithms",
        [("bcrs", ALGS[:4]), ("bcrs_opwa", ALGS)],  # Figs. 7–9 / Table 2 and Figs. 13–15
    )
    def test_paper_grid_cells_are_the_per_algorithm_presets(self, base_algorithm, algorithms):
        """The README's long-form Table 2 command is one grid over the
        bcrs_opwa preset (dataset × beta × compression_ratio × algorithm);
        Figs. 7–9 gridded their four algorithms over the bcrs preset. Either
        way every cell is the experiment the per-algorithm preset describes,
        which is what the claims grid (``repro.experiments.claims``) runs."""
        ds, beta, cr = "synth-svhn", 0.1, 0.01
        report = run_grid(
            paper_config("cifar10", base_algorithm, rounds=3),
            {
                "dataset": [ds],
                "beta": [beta],
                "compression_ratio": [cr],
                "algorithm": list(algorithms),
            },
        )
        assert len(report.cells) == len(algorithms)
        for spec, history in report.cells:
            preset = paper_config(
                ds, spec.axes["algorithm"], beta=beta, compression_ratio=cr, rounds=3
            )
            assert digestable(history) == digestable(run_experiment(preset)), spec.axes


class TestReporting:
    @pytest.fixture
    def history(self):
        return Simulation(paper_config("cifar10", "topk", compression_ratio=0.1, **SMALL)).run()

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_series_text(self, history):
        text = series_text(history, every=2)
        assert "round" in text and "acc" in text


class TestPaperReference:
    def test_table2_complete(self):
        for ds, cells in TABLE2.items():
            assert set(cells) == {(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)}
            for algs in cells.values():
                assert set(algs) == {"fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"}
                assert all(0 < v < 1 for v in algs.values())

    def test_table3_fedavg_actual_equals_max(self):
        actual, mx, mn = TABLE3["fedavg"][0.1]
        assert actual == mx
        assert mn < actual

    def test_table4_gamma7_beats_gamma3_at_high_compression(self):
        assert TABLE4[(0.1, 0.01)][7] > TABLE4[(0.1, 0.01)][3]
