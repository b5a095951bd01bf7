"""SweepReport edge cases feeding the renderer: failed/empty/degenerate grids.

The happy-path grid analytics are covered in test_sweep.py; these pin the
paths a real sweep can produce — cells whose runs recorded nothing, runs
without evaluations, one-cell sweeps — end to end through ``best_cells``/
``marginals``/``pareto_frontier`` and the HTML sweep section they feed,
plus the summary-data layer the renderers read (``rows``, ``by_axis``,
``grid_means``).
"""

from __future__ import annotations

import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.history import History, RoundRecord
from repro.network.metrics import RoundTimes
from repro.report import sweep_section
from repro.scenarios import ScenarioSpec, SweepReport, expand_grid
from repro.viz.ascii import ascii_sweep_grid


def record(i: int, acc: float | None) -> RoundRecord:
    return RoundRecord(
        round_index=i, selected=(0,), train_loss=1.0, test_accuracy=acc,
        times=RoundTimes(actual=1.0, maximum=1.0, minimum=1.0),
        ratios=(0.2,), weights=(1.0,), singleton_fraction=None,
        train_seconds=0.0, compress_seconds=0.0,
        sim_start=float(i), sim_end=float(i) + 1.0,
    )


def history(accs) -> History:
    h = History()
    for i, acc in enumerate(accs):
        h.append(record(i, acc))
    return h


def grid(axes: dict) -> list[ScenarioSpec]:
    cfg = ExperimentConfig(
        dataset="synth-cifar10", num_train=200, num_test=100, num_clients=4,
        rounds=2, algorithm="topk", compression_ratio=0.2, seed=3,
    )
    return expand_grid(cfg, axes)


class TestAllFailedCells:
    """Every cell's history is empty (e.g. all runs died before round 0)."""

    def report(self) -> SweepReport:
        specs = grid({"gamma": [3.0, 5.0]})
        return SweepReport(cells=[(s, History()) for s in specs], executed=2)

    def test_analytics_are_empty_not_errors(self):
        rep = self.report()
        assert rep.marginals() == {"gamma": {}}
        assert rep.pareto_frontier() == []
        assert rep.time_to_accuracy_frontier(0.5) == [
            (spec, None) for spec, _ in rep.cells
        ]

    def test_renderer_degrades_to_message(self):
        out = sweep_section(self.report(), target=0.5)
        assert "No evaluated cells" in out
        assert "never reached" in out


class TestMissingAccuracyMode:
    """Runs that trained but never evaluated (eval_every > rounds)."""

    def report(self) -> SweepReport:
        specs = grid({"gamma": [3.0, 5.0]})
        cells = [
            (specs[0], history([None, None])),  # trained, no evals
            (specs[1], history([0.2, 0.4])),
        ]
        return SweepReport(cells=cells, executed=2)

    def test_marginals_skip_unevaluated_cells(self):
        marg = self.report().marginals()["gamma"]
        assert list(marg) == [5.0]
        assert marg[5.0]["n"] == 1.0

    def test_pareto_frontier_skips_unevaluated_cells(self):
        frontier = self.report().pareto_frontier()
        assert len(frontier) == 1
        assert frontier[0][3] == 0.4

    def test_unevaluated_cells_drop_out_of_rankings(self):
        out = sweep_section(self.report())
        ranking = out[out.index("Top cells") :]
        ranking = ranking[: ranking.index("</table>")]
        assert "gamma=5" in ranking and "gamma=3" not in ranking

    def test_renderer_keeps_the_evaluated_cell(self):
        out = sweep_section(self.report())
        assert "Top cells" in out
        assert "gamma=5" in out


class TestSingleCellSweep:
    def report(self) -> SweepReport:
        (spec,) = grid({"gamma": [3.0]})
        return SweepReport(cells=[(spec, history([0.1, 0.3]))], executed=1)

    def test_one_cell_is_its_own_frontier(self):
        rep = self.report()
        assert len(rep.pareto_frontier()) == 1
        assert rep.marginals()["gamma"][3.0]["mean_final"] == 0.3

    def test_renderer_handles_single_value_axes(self):
        out = sweep_section(self.report(), target=0.2)
        assert "Marginal over gamma" in out
        assert "heatmap" not in out  # one axis → no grid


class TestEmptySweep:
    def test_zero_cells(self):
        rep = SweepReport()
        assert rep.marginals() == {}
        assert rep.pareto_frontier() == []
        assert "No evaluated cells" in sweep_section(rep)


class TestRows:
    def test_unevaluated_history_yields_none_fields(self):
        specs = grid({"gamma": [3.0, 5.0]})
        rep = SweepReport(cells=[(specs[0], history([None, None])), (specs[1], History())])
        trained, empty = rep.rows(target=0.1)
        assert trained == {
            "label": "gamma=3.0", "rounds": 2, "final": None, "best": None,
            "comm_time": 2.0, "virtual_time": 2.0, "backhaul": None,
            "t_to_target": None,
        }
        assert empty["rounds"] == 0 and empty["virtual_time"] is None
        assert empty["comm_time"] == 0.0

    def test_target_reached_and_never(self):
        specs = grid({"gamma": [3.0, 5.0]})
        rep = SweepReport(
            cells=[(specs[0], history([0.1, 0.3])), (specs[1], history([0.1, 0.2]))]
        )
        assert "t_to_target" not in rep.rows()[0]
        assert [r["t_to_target"] for r in rep.rows(target=0.3)] == [2.0, None]
        assert [r["final"] for r in rep.rows()] == [0.3, 0.2]
        assert rep.to_dict()["cells"][0]["virtual_time"] == 2.0


class TestByAxis:
    def test_unique_axis_maps_value_to_history(self):
        specs = grid({"gamma": [3.0, 5.0]})
        hists = [history([0.1]), history([0.2])]
        rep = SweepReport(cells=list(zip(specs, hists)))
        out = rep.by_axis("gamma")
        assert list(out) == [3.0, 5.0]
        assert out[3.0] is hists[0] and out[5.0] is hists[1]

    def test_missing_axis_is_an_error(self):
        rep = SweepReport(cells=[(s, history([0.1])) for s in grid({"gamma": [3.0]})])
        with pytest.raises(ValueError, match="has no axis 'alpha'"):
            rep.by_axis("alpha")

    def test_value_labelling_two_cells_is_an_error_not_last_wins(self):
        cfg = grid({"gamma": [3.0]})[0].to_config()
        seeded = expand_grid(cfg, {"gamma": [3.0, 5.0]}, seeds=2)
        rep = SweepReport(cells=[(s, history([0.1])) for s in seeded])
        with pytest.raises(ValueError, match="gamma=3.0 labels more than one cell"):
            rep.by_axis("gamma")
        two_axes = grid({"gamma": [3.0, 5.0], "alpha": [0.1, 0.3]})
        rep = SweepReport(cells=[(s, history([0.1])) for s in two_axes])
        with pytest.raises(ValueError, match="labels more than one cell"):
            rep.by_axis("alpha")


class TestGridMeans:
    def report(self) -> SweepReport:
        specs = grid({"gamma": [3.0, 5.0], "alpha": [0.1, 0.3]})
        curves = [[0.1, 0.2], [0.3, 0.4], [None, None], [0.2, 0.6]]
        return SweepReport(cells=[(s, history(c)) for s, c in zip(specs, curves)])

    def test_unevaluated_cell_is_missing_from_the_means(self):
        xs, ys, means = self.report().grid_means("gamma", "alpha")
        assert xs == [3.0, 5.0] and ys == [0.1, 0.3]
        assert means == {(3.0, 0.1): 0.2, (3.0, 0.3): 0.4, (5.0, 0.3): 0.6}
        assert "--" in ascii_sweep_grid(self.report(), "gamma", "alpha")

    def test_means_average_over_seeds_and_take_the_metric(self):
        cfg = grid({"gamma": [3.0]})[0].to_config()
        specs = expand_grid(cfg, {"gamma": [3.0], "alpha": [0.1]}, seeds=2)
        rep = SweepReport(
            cells=[(specs[0], history([0.5, 0.2])), (specs[1], history([0.1, 0.4]))]
        )
        assert rep.grid_means("gamma", "alpha")[2] == {(3.0, 0.1): pytest.approx(0.3)}
        assert rep.grid_means("gamma", "alpha", "best")[2] == {(3.0, 0.1): 0.45}

    def test_no_cell_carrying_both_axes_is_an_error(self):
        with pytest.raises(ValueError, match="no cells carry both axes 'gamma' and 'nope'"):
            self.report().grid_means("gamma", "nope")
        with pytest.raises(ValueError, match="metric must be 'final' or 'best'"):
            self.report().grid_means("gamma", "alpha", "worst")

    def test_html_section_skips_the_grid_it_cannot_draw(self):
        specs = grid({"gamma": [3.0, 5.0], "alpha": [0.1, 0.3]})
        rep = SweepReport(cells=[(s, history([None])) for s in specs])
        assert "Grid: mean final accuracy" not in sweep_section(rep)
        assert "Grid: mean final accuracy" in sweep_section(self.report())
