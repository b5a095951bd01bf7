"""Section renderers: each artifact kind renders alone and degrades sanely."""

from __future__ import annotations

import math

from repro.report.sections import (
    _histogram_quantile,
    history_section,
    manifest_section,
    metrics_section,
    robustness_section,
    sweep_section,
    trace_section,
)
from tests.report._artifacts import MANIFEST, make_hier_sweep, make_history, make_robust_sweep

from repro.obs.tracer import Span


class TestManifest:
    def test_renders_every_pair(self):
        out = manifest_section(MANIFEST)
        assert "spec" not in out  # only what the caller supplied
        for key, value in MANIFEST.items():
            assert key in out and value in out


class TestHistorySection:
    def test_full_history_renders_all_charts(self, history):
        out = history_section(history)
        assert out.startswith('<section id="history">')
        assert "Accuracy vs round" in out
        assert "Accuracy vs virtual time" in out
        assert "Train loss vs round" in out
        assert "Comm ledger" in out
        assert "Mean staleness" in out
        assert "final accuracy" in out

    def test_backhaul_free_ledger_omits_backhaul_series(self, history):
        out = history_section(history)
        assert "uplink" in out and "downlink" in out
        assert "backhaul</" not in out.split("Comm ledger")[1].split("</figure>")[0]

    def test_unevaluated_history_renders_without_accuracy(self):
        out = history_section(make_history((0.1, 0.2), evaluate=False))
        assert "Accuracy vs round" not in out
        assert "Train loss" in out

    def test_legacy_history_without_ledger(self):
        out = history_section(make_history((0.1, 0.2), comm=False))
        assert "Comm ledger" not in out
        assert "Accuracy vs round" in out

    def test_empty_history(self):
        out = history_section(make_history(()))
        assert "<section" in out  # tiles only, nothing to plot


class TestSweepSection:
    def test_full_grid_renders_ranking_marginals_frontier_heatmap(self, sweep):
        out = sweep_section(sweep, target=0.3)
        assert "Top cells" in out
        assert "Marginal over gamma" in out
        assert "Marginal over include_downlink" in out
        assert "Pareto frontier" in out
        assert "Time to accuracy" in out
        assert "heatmap" in out
        assert "loaded from store" in out

    def test_target_lists_cells_that_never_reach_it(self, sweep):
        out = sweep_section(sweep, target=0.99)
        assert "never reached" in out

    def test_single_axis_grid_has_no_heatmap(self, sweep):
        single = type(sweep)(
            cells=[
                (spec, h) for spec, h in sweep.cells
                if spec.axes.get("include_downlink") is False
            ],
            executed=2,
            reused=0,
        )
        for spec, _ in single.cells:
            spec.axes.pop("include_downlink")
        out = sweep_section(single)
        assert "heatmap" not in out
        assert "Marginal over gamma" in out

    def test_rows_carry_the_slowest_edges_mean_backhaul(self):
        """The hier-shaped cell's rounds have slowest-edge backhauls of 0.5 s
        and 1.0 s; the flat-shaped cell has no edge breakdown at all."""
        flat, hier = make_hier_sweep().rows()
        assert flat["backhaul"] is None
        assert hier["backhaul"] == 0.75
        assert (hier["comm_time"], hier["virtual_time"]) == (2.0, 4.0)


class TestRobustnessSection:
    def test_robustness_axis_renders_a_degradation_curve(self):
        out = robustness_section(make_robust_sweep())
        assert out.startswith('<section id="robustness">')
        assert "Accuracy vs adversary_fraction" in out
        # Marginalized over the aggregator axis: three intensities, two cells each.
        assert out.count("<tr>") == 1 + 3
        assert "<td>0.15</td><td>0.3750</td>" in out

    def test_sweep_without_a_robustness_axis_renders_nothing(self, sweep):
        assert robustness_section(sweep) == ""


class TestTraceSection:
    def test_timeline_hotspots_and_utilization(self, spans):
        out = trace_section(spans)
        assert "span timeline" in out
        assert "Hot spots" in out
        assert "client_task" in out
        assert "Lane utilization" in out
        assert "lane 101" in out and "main" in out

    def test_empty_trace_degrades_to_message(self):
        assert "No wall-clock spans" in trace_section([])

    def test_lane_cap_is_stated(self):
        spans = [
            Span(name="s", cat="exec", start=0.0, end=1.0, tid=tid)
            for tid in range(20)
        ]
        out = trace_section(spans, max_lanes=4)
        assert "clipped" in out
        assert out.count('class="lane"') == 4


class TestMetricsSection:
    def test_registry_and_dict_render_identically(self, metrics):
        assert metrics_section(metrics) == metrics_section(metrics.to_dict())

    def test_sparklines_kinds_and_histograms(self, metrics):
        out = metrics_section(metrics)
        assert "rounds_total" in out and "counter Δ/round" in out
        assert "cache_size" in out and "spark" in out
        assert "train_seconds" in out
        assert "~p50" in out and "~p99" in out

    def test_empty_registry(self):
        out = metrics_section({"schema": 1, "metrics": [], "snapshots": []})
        assert "<section" in out


class TestHistogramQuantile:
    ROW = {
        "count": 4,
        "min": 0.1,
        "max": 0.9,
        "buckets": [
            {"le": 0.25, "count": 1},
            {"le": 1.0, "count": 3},
            {"le": math.inf, "count": 0},
        ],
    }

    def test_zero_count_is_none(self):
        assert _histogram_quantile({"count": 0, "buckets": []}, 0.5) is None

    def test_quantiles_stay_inside_observed_range(self):
        for q in (0.1, 0.5, 0.9, 0.99):
            est = _histogram_quantile(self.ROW, q)
            assert 0.1 <= est <= 0.9

    def test_quantiles_are_monotone(self):
        qs = [_histogram_quantile(self.ROW, q) for q in (0.25, 0.5, 0.75, 0.99)]
        assert qs == sorted(qs)

    def test_overflow_bucket_uses_observed_max(self):
        row = {
            "count": 2,
            "min": 5.0,
            "max": 9.0,
            "buckets": [{"le": 1.0, "count": 0}, {"le": math.inf, "count": 2}],
        }
        est = _histogram_quantile(row, 0.99)
        assert est is not None and est <= 9.0
