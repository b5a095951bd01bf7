"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import CONFIG_FLAGS, build_parser, main
from repro.fl.config import (
    ADVERSARIES,
    AGGREGATORS,
    BACKENDS,
    CONTENTION_MODES,
    EDGE_ASSIGNMENTS,
    MODES,
    ExperimentConfig,
)

FAST_ARGS = ["--rounds", "3", "--dataset", "cifar10", "--beta", "0.5", "--cr", "0.2"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "bcrs_opwa"
        assert args.dataset == "cifar10"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "sgd"])

    def test_flag_table_names_config_fields_and_reads_their_vocabularies(self):
        """Each config-mapped flag is declared once, against a real field,
        and a choice flag accepts exactly what the config validates."""
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {field for _, field, _ in CONFIG_FLAGS} <= fields
        vocabularies = {
            "--backend": BACKENDS,
            "--mode": MODES,
            "--edge-assignment": EDGE_ASSIGNMENTS,
            "--contention": CONTENTION_MODES,
            "--adversary": ADVERSARIES,
            "--aggregator": AGGREGATORS,
        }
        by_flag = {flag: (field, kwargs) for flag, field, kwargs in CONFIG_FLAGS}
        assert {f for f, (_, kw) in by_flag.items() if "choices" in kw} == set(vocabularies)
        parser = build_parser()
        for flag, vocabulary in vocabularies.items():
            for word in vocabulary:
                args = parser.parse_args(["run", flag, word])
                assert getattr(args, by_flag[flag][0]) == word


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "bcrs_opwa" in out
        assert "topk" in out

    def test_run_prints_curve(self, capsys):
        assert main(["run", "--algorithm", "topk", *FAST_ARGS]) == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "round" in out

    def test_run_saves_artifacts(self, tmp_path, capsys):
        hist = tmp_path / "h.json"
        csv_path = tmp_path / "c.csv"
        rc = main([
            "run", "--algorithm", "topk", *FAST_ARGS,
            "--save-history", str(hist), "--export-csv", str(csv_path),
        ])
        assert rc == 0
        assert json.loads(hist.read_text())["records"]
        assert csv_path.read_text().startswith("round,")

    def test_compare(self, capsys):
        """An algorithm comparison is a one-axis grid; the cell table
        carries Table 3's comm_time next to the accuracies."""
        rc = main(["sweep", "--grid", "algorithm=fedavg,topk", *FAST_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm=fedavg" in out and "algorithm=topk" in out
        assert "comm_time" in out
        assert "marginal over" not in out  # one cell per value: no repeat table

    def test_compare_rejects_unknown(self, capsys):
        rc = main(["sweep", "--grid", "algorithm=fedavg,nope", *FAST_ARGS])
        assert rc == 2
        assert "algorithm must be one of" in capsys.readouterr().err

    def test_compare_rejects_compressor_override_on_fedavg(self, capsys):
        rc = main([
            "sweep", "--scenario", "edge-quantized", "--rounds", "1",
            "--grid", "algorithm=topk,fedavg",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "compressor override requires a compressing algorithm" in captured.err
        assert captured.out == ""  # rejected before the topk cell ran

    def test_sweep(self, capsys):
        rc = main(["sweep", "--algorithm", "bcrs_opwa", "--grid", "gamma=3,5", *FAST_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma=3.0" in out and "gamma=5.0" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--workers", "0"], "workers must be >= 1, got 0"),
            (["comm", "--contention", "fair"], "needs server_ingress_mbps"),
            (["run", "--num-edges", "99"], "num_edges must be in [1, num_clients=10]"),
            (["scenario", "run", "straggler-storm", "--workers", "0"],
             "workers must be >= 1, got 0"),
        ],
    )
    def test_config_errors_exit_2_without_traceback(self, capsys, argv, message):
        """`run`, `comm` and `scenario run` report a config the flags cannot
        build the way `sweep` does: the message on stderr, exit 2."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestSweepGrid:
    def test_nothing_to_sweep_rejected(self, capsys):
        rc = main(["sweep", *FAST_ARGS])
        assert rc == 2

    def test_unknown_field_rejected(self, capsys):
        rc = main(["sweep", "--grid", "gammma=3,5", *FAST_ARGS])
        assert rc == 2
        assert "unknown config field" in capsys.readouterr().err

    def test_boolean_axis_types_through_config(self, capsys):
        """The old parser stringified values, so bool('false') swept
        [True, True]; the typed parser must produce two distinct cells."""
        rc = main([
            "sweep", "--algorithm", "topk", "--grid",
            "include_downlink=false,true", *FAST_ARGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "include_downlink=False" in out
        assert "include_downlink=True" in out

    def test_multi_axis_grid_with_parallel_and_marginals(self, capsys):
        rc = main([
            "sweep", "--algorithm", "bcrs_opwa",
            "--grid", "gamma=3,5", "--grid", "alpha=0.1,0.3",
            "--parallel", "4", "--target-acc", "0.02", *FAST_ARGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "marginal over gamma" in out
        assert "marginal over alpha" in out
        assert "t_to_target" in out

    def test_store_resume_skips_completed_cells(self, tmp_path, capsys):
        args = [
            "sweep", "--algorithm", "topk", "--grid", "gamma=3,5",
            "--store", str(tmp_path / "runs"), *FAST_ARGS,
        ]
        assert main(args) == 0
        assert "2 cell(s) run, 0 loaded" in capsys.readouterr().out
        assert main(args) == 0
        assert "0 cell(s) run, 2 loaded" in capsys.readouterr().out

    def test_scenario_base_with_seeds(self, capsys):
        rc = main([
            "sweep", "--scenario", "paper-baseline", "--rounds", "2",
            "--grid", "num_train=200", "--seeds", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=0" in out and "seed=1" in out

    def test_scenario_base_honors_explicit_seed(self, capsys):
        """--seed layers onto a --scenario base exactly like `scenario run`."""
        a = main([
            "sweep", "--scenario", "paper-baseline", "--rounds", "2",
            "--grid", "num_train=200", "--seed", "7",
        ])
        out_seed7 = capsys.readouterr().out
        b = main([
            "sweep", "--scenario", "paper-baseline", "--rounds", "2",
            "--grid", "num_train=200",
        ])
        out_default = capsys.readouterr().out
        assert a == b == 0
        assert out_seed7 != out_default  # the seed actually reached the cells

    def test_cross_field_invalid_value_exits_cleanly(self, capsys):
        rc = main(["sweep", "--grid", "alpha=-1,0.3", *FAST_ARGS])
        assert rc == 2
        assert "alpha must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--grid", "dataset=cifar10,svhn"],
             "dataset must be one of ('synth-cifar10', 'synth-cifar100', 'synth-svhn'), got 'cifar10'"),
            (["--algorithm", "bcrs", "--grid", "norm_mode=sum,bogus"],
             "norm_mode must be one of ('sum', 'max', 'none'), got 'bogus'"),
            # A cross-field pair only HierSimulation.__init__ used to reject,
            # after the grid's `sync` cell had already run.
            (["--algorithm", "topk", "--drop-prob", "0.1", "--grid", "mode=sync,hier,async"],
             "drop_prob/truncate_prob are not supported in mode='hier'"),
        ],
    )
    def test_unknown_name_on_an_axis_fails_before_any_cell_runs(
        self, tmp_path, capsys, argv, message
    ):
        """A value only the first round would have rejected — the second
        case after running its valid first cell — stops the sweep up front."""
        store = tmp_path / "runs"
        rc = main(["sweep", *argv, "--store", str(store), "--rounds", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not store.exists() or not any(store.iterdir())

    def test_duplicate_cells_exit_cleanly(self, capsys):
        rc = main(["sweep", "--grid", "gamma=3,3.0", *FAST_ARGS])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_none_is_a_plain_value_for_str_fields(self, capsys):
        rc = main([
            "sweep", "--algorithm", "topk", "--grid", "contention=none",
            *FAST_ARGS,
        ])
        assert rc == 0
        assert "contention=none" in capsys.readouterr().out


class TestScenarioCommand:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "straggler-storm" in out and "edge-quantized" in out

    def test_show(self, capsys):
        assert main(["scenario", "show", "diurnal-churn"]) == 0
        out = capsys.readouterr().out
        assert "expected:" in out and "mode = 'async'" in out

    def test_show_requires_name(self, capsys):
        assert main(["scenario", "show"]) == 2

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "available" in err
        assert not err.startswith('"')  # KeyError message printed unwrapped

    def test_run_with_overrides_and_artifacts(self, tmp_path, capsys):
        hist = tmp_path / "h.json"
        rc = main([
            "scenario", "run", "straggler-storm", "--rounds", "2",
            "--seed", "1", "--save-history", str(hist),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario straggler-storm" in out and "mode semisync" in out
        assert json.loads(hist.read_text())["records"]


class TestHierCommand:
    def test_hier_summary_table(self, capsys):
        rc = main([
            "sweep", "--mode", "hier", "--grid", "num_edges=1,2",
            "--target-acc", "0.05", *FAST_ARGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "num_edges=1" in out and "num_edges=2" in out
        assert "backhaul/rnd" in out and "t_to_target" in out

    def test_flat_sweep_has_no_backhaul_column(self, capsys):
        assert main(["sweep", "--grid", "gamma=3,5", *FAST_ARGS]) == 0
        assert "backhaul/rnd" not in capsys.readouterr().out

    def test_hier_rejects_too_many_edges(self, capsys):
        rc = main(["sweep", "--mode", "hier", "--grid", "num_edges=99", *FAST_ARGS])
        assert rc == 2
        assert "num_edges must be in [1, num_clients=10]" in capsys.readouterr().err

    def test_run_mode_hier_with_knobs(self, capsys):
        rc = main([
            "run", "--algorithm", "topk", "--mode", "hier",
            "--num-edges", "2", "--edge-rounds", "2", "--backhaul-mbps", "100",
            *FAST_ARGS,
        ])
        assert rc == 0
        assert "mode hier" in capsys.readouterr().out

    def test_hier_saves_per_edge_histories(self, tmp_path, capsys):
        """Per-cell artifacts are named by spec hash, one per edge count."""
        hist = tmp_path / "h"
        rc = main([
            "sweep", "--mode", "hier", "--grid", "num_edges=1,2",
            "--save-history", str(hist), *FAST_ARGS,
        ])
        assert rc == 0
        saved = sorted(tmp_path.glob("h.*.json"))
        assert len(saved) == 2
        for path in saved:
            data = json.loads(path.read_text())
            assert data["records"][0]["edge_breakdown"] is not None

    def test_comm_summary(self, capsys):
        rc = main(["comm", "--algorithm", "topk", *FAST_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "uplink" in out and "direction" in out
        assert "contention none" in out

    def test_comm_with_fair_contention(self, capsys):
        rc = main([
            "comm", "--algorithm", "topk", "--contention", "fair",
            "--ingress-mbps", "1.5", *FAST_ARGS,
        ])
        assert rc == 0
        assert "contention fair" in capsys.readouterr().out

    def test_run_contention_knobs_reach_config(self, capsys):
        rc = main([
            "run", "--algorithm", "topk", "--contention", "fair",
            "--ingress-mbps", "2", *FAST_ARGS,
        ])
        assert rc == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_comm_saves_ledger(self, tmp_path, capsys):
        hist = tmp_path / "h.json"
        rc = main([
            "comm", "--algorithm", "topk", "--save-history", str(hist), *FAST_ARGS,
        ])
        assert rc == 0
        data = json.loads(hist.read_text())
        assert data["records"][0]["comm"]["uplink"]
