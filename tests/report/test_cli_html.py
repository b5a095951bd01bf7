"""End-to-end CLI routes: --html on live runs and the post-hoc report verb."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_args(tmp_path, *extra) -> list[str]:
    return [
        "run", "--dataset", "synth-cifar10", "--rounds", "2",
        "--num-clients", "4", "--seed", "3", "--backend", "serial",
        *extra,
    ]


def assert_self_contained(path, *sections):
    page = path.read_text()
    assert page.replace("http://www.w3.org/2000/svg", "").count("http") == 0
    assert page.count("<html") == 1
    for anchor in sections:
        assert f'<section id="{anchor}">' in page
    return page


class TestHtmlFlag:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "run.html"
        rc = main(run_args(
            tmp_path,
            "--trace", str(tmp_path / "t.json"),
            "--metrics", str(tmp_path / "m.json"),
            "--html", str(out),
        ))
        assert rc == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert_self_contained(out, "manifest", "history", "trace", "metrics")

    def test_run_without_obs_renders_history_only(self, tmp_path):
        out = tmp_path / "run.html"
        assert main(run_args(tmp_path, "--html", str(out))) == 0
        page = assert_self_contained(out, "manifest", "history")
        assert '<section id="trace">' not in page
        assert '<section id="metrics">' not in page

    def test_sweep_html(self, tmp_path):
        out = tmp_path / "sweep.html"
        rc = main([
            "sweep", "--grid", "gamma=3,5", "--dataset", "synth-cifar10",
            "--rounds", "2", "--num-clients", "4",
            "--store", str(tmp_path / "cells"),
            "--target-acc", "0.1", "--html", str(out),
        ])
        assert rc == 0
        page = assert_self_contained(out, "manifest", "sweep")
        assert "Marginal over gamma" in page
        assert "Time to accuracy" in page


class TestReportVerb:
    def test_needs_at_least_one_artifact(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path / "r.html")])
        assert rc == 2
        assert "at least one artifact" in capsys.readouterr().err

    def test_unreadable_artifact_is_a_clean_error(self, tmp_path, capsys):
        rc = main([
            "report", "--out", str(tmp_path / "r.html"),
            "--history", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        assert "cannot load artifacts" in capsys.readouterr().err

    def test_empty_store_is_a_clean_error(self, tmp_path, capsys):
        rc = main([
            "report", "--out", str(tmp_path / "r.html"),
            "--store", str(tmp_path / "nocells"),
        ])
        assert rc == 2
        assert "no completed cells" in capsys.readouterr().err

    def test_rebuilds_page_from_all_stored_artifacts(self, tmp_path):
        # Produce every artifact kind with live runs...
        hist = tmp_path / "h.json"
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        store = tmp_path / "cells"
        assert main(run_args(
            tmp_path,
            "--save-history", str(hist),
            "--trace", str(trace), "--metrics", str(metrics),
        )) == 0
        assert main([
            "sweep", "--grid", "gamma=3,5", "--dataset", "synth-cifar10",
            "--rounds", "2", "--num-clients", "4", "--store", str(store),
        ]) == 0

        # ...then rebuild the page post-hoc, twice: identical bytes.
        out1, out2 = tmp_path / "r1.html", tmp_path / "r2.html"
        for out in (out1, out2):
            rc = main([
                "report", "--out", str(out),
                "--history", str(hist), "--store", str(store),
                "--trace", str(trace), "--metrics", str(metrics),
                "--title", "post-hoc",
            ])
            assert rc == 0
        assert_self_contained(out1, "manifest", "history", "sweep", "trace", "metrics")
        assert out1.read_text() == out2.read_text()

    def test_run_writes_one_file_per_artifact(self, tmp_path):
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        assert main(run_args(tmp_path, "--trace", str(trace), "--metrics", str(metrics))) == 0
        assert sorted(tmp_path.iterdir()) == [metrics, trace]

    @pytest.mark.parametrize("verb", ["profile", "report"])
    def test_jsonl_trace_is_refused_by_name(self, tmp_path, capsys, verb):
        """The JSONL event stream older runs wrote beside the Chrome trace."""
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text(
            '{"type": "span", "name": "round", "cat": "sim", "t0": 0.0, "t1": 1.0, "tid": 0}\n'
            '{"type": "instant", "name": "mark", "cat": "sim", "t": 0.5, "tid": 0}\n'
        )
        argv = (
            ["profile", str(jsonl)]
            if verb == "profile"
            else ["report", "--out", str(tmp_path / "r.html"), "--trace", str(jsonl)]
        )
        assert main(argv) == 2
        assert "is not a Chrome trace" in capsys.readouterr().err
        assert not (tmp_path / "r.html").exists()

    @pytest.mark.parametrize("verb", ["profile", "report"])
    def test_metrics_json_is_refused_as_a_trace(self, tmp_path, capsys, verb):
        metrics = tmp_path / "m.json"
        assert main(run_args(tmp_path, "--metrics", str(metrics))) == 0
        argv = (
            ["profile", str(metrics)]
            if verb == "profile"
            else ["report", "--out", str(tmp_path / "r.html"), "--trace", str(metrics)]
        )
        assert main(argv) == 2
        assert "is not a Chrome trace" in capsys.readouterr().err
        assert not (tmp_path / "r.html").exists()

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_run_writes_only_the_requested_artifact(self, tmp_path, flag):
        artifact = tmp_path / "a.json"
        assert main(run_args(tmp_path, flag, str(artifact))) == 0
        assert sorted(tmp_path.iterdir()) == [artifact]

    def test_metrics_json_round_trips_through_export(self, tmp_path):
        metrics = tmp_path / "m.json"
        assert main(run_args(tmp_path, "--metrics", str(metrics))) == 0
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == 1
        out = tmp_path / "r.html"
        assert main(["report", "--out", str(out), "--metrics", str(metrics)]) == 0
        assert_self_contained(out, "metrics")
