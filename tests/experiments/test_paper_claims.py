"""Tests for the claims table: the preset grid it runs and how claims score."""

import numpy as np
import pytest

from repro.experiments.claims import (
    ALGORITHMS, CLAIMS, PANELS, REPORTED, TABLE3_PANELS, claims_table, paper_grid,
)
from repro.experiments.paper_reference import TABLE2, TABLE3
from repro.experiments.presets import bench_config
from repro.fl.config import ExperimentConfig
from repro.fl.history import History
from repro.scenarios import ScenarioSpec
from tests.fl.test_history import record

#: The figures' datasets; each plots β ∈ {0.1, 0.5} × CR ∈ {0.1, 0.01} panels
#: of every algorithm but BCRS+OPWA (Figs. 7–9) or of all five (Figs. 13–15).
FIGURES = {7: "cifar10", 8: "svhn", 9: "cifar100", 13: "cifar10", 14: "cifar100", 15: "svhn"}


def spec_hash(config) -> str:
    return ScenarioSpec.from_config(config, name="cell").spec_hash()


def history(*accs, actual=1.0, maximum=2.0, minimum=0.5) -> History:
    h = History()
    for i, acc in enumerate(accs):
        h.append(record(i, acc=acc, actual=actual, maximum=maximum, minimum=minimum))
    return h


def paper_runs() -> dict:
    """Hand-built runs ending at the paper's numbers: Table 2's final
    accuracies, and Table 3's seconds to 40 % (FedAvg's Max/Min too)."""
    runs = {p: {a: history(0.0, acc) for a, acc in TABLE2[p[0]][p[1:]].items()} for p in PANELS}
    for p in TABLE3_PANELS:
        runs[p] = {a: history(0.5, actual=TABLE3[a][p[2]][0]) for a in ALGORITHMS[:4]}
        _, mx, mn = TABLE3["fedavg"][p[2]]
        runs[p]["fedavg"] = history(0.5, actual=TABLE3["fedavg"][p[2]][0], maximum=mx, minimum=mn)
    return runs


class TestGrid:
    def test_accuracy_grid_is_54_distinct_runs(self):
        grid = paper_grid()
        assert sum(len(grid[p]) for p in PANELS) == 60
        assert len({spec_hash(c) for p in PANELS for c in grid[p].values()}) == 54
        assert len({spec_hash(c) for p in TABLE3_PANELS for c in grid[p].values()}) == 7

    @pytest.mark.parametrize("panel", PANELS + TABLE3_PANELS, ids=str)
    def test_each_cell_is_its_preset(self, panel):
        """FedAvg runs dense at every CR, and no baseline carries OPWA's γ."""
        ds, beta, cr, *rounds = panel
        for alg, cfg in paper_grid()[panel].items():
            preset = bench_config(ds, alg, beta=beta, compression_ratio=cr, **dict(zip(["rounds"], rounds)))
            assert spec_hash(cfg) == spec_hash(preset)
            assert cfg.compression_ratio == (1.0 if alg == "fedavg" else cr)
            assert cfg.gamma == (7.0 if alg == "bcrs_opwa" else ExperimentConfig.gamma)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_figure_panels_are_grid_cells(self, figure):
        dataset, algorithms = FIGURES[figure], ALGORITHMS[:4] if figure < 13 else ALGORITHMS
        grid = paper_grid()
        for beta in (0.1, 0.5):
            for cr in (0.1, 0.01):
                assert set(algorithms) <= set(grid[dataset, beta, cr])


class TestScoring:
    @pytest.mark.parametrize(
        "claim", [c for c in CLAIMS + REPORTED if c.paper is not None], ids=lambda c: c.name
    )
    def test_runs_at_the_paper_numbers_score_as_the_paper(self, claim):
        """The measuring path (histories) and the paper path (table numbers)
        give the same values, so the table's two columns are comparable."""
        measured = claim.evaluate(paper_runs())
        for cell in claim.cells:
            values, holds = claim.score(claim.paper[cell])
            np.testing.assert_allclose(measured[cell][0], values)
            assert measured[cell][1] == holds

    def test_a_violated_claim_reports_k_below_n_with_its_numbers(self):
        runs = paper_runs()
        runs["svhn", 0.5, 0.01]["bcrs_opwa"] = history(0.0, 0.5)
        claim = next(c for c in CLAIMS if c.name == "bcrs_opwa - topk > 0")
        failing = {c: v for c, (v, ok) in claim.evaluate(runs).items() if not ok}
        assert list(failing) == [("svhn", 0.5, 0.01)]
        np.testing.assert_allclose(failing["svhn", 0.5, 0.01], [0.5 - 0.7771])
        row = next(line for line in claims_table(runs).splitlines() if line.startswith(claim.name))
        assert row[len(claim.name):].split()[:2] == ["assert", "11/12"]

    def test_degenerate_runs_score_without_raising(self):
        """Zero accuracy everywhere: ratios divide by zero, nothing reaches
        40 %, Min time is 0. No claim raises; each that needs a positive
        value holds in no panel."""
        runs = {
            p: {a: history(0.0, 0.0, actual=0.0, maximum=0.0, minimum=0.0) for a in panel}
            for p, panel in paper_grid().items()
        }
        for claim in CLAIMS:
            held = [ok for _, ok in claim.evaluate(runs).values()]
            assert claim.bound < 0 or not any(held), claim.name
        text = claims_table(runs)
        assert "cifar10 0.1 0.01 60" in text and "--" in text

    def test_table_lists_every_claim_and_cell(self):
        text = claims_table(paper_runs())
        for claim in CLAIMS + REPORTED:
            assert claim.name in text
        assert len(text.split("\n\n")[1].splitlines()) == 2 + 60 + 8
