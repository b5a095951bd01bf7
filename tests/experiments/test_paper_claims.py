"""Tests for the claims table: the preset grid it runs and how claims score."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from repro.experiments.claims import (
    ALGORITHMS, CLAIMS, FIG6, PANELS, REPORTED, TABLE3_PANELS, claims_table, paper_grid,
)
from repro.experiments.paper_reference import FIG6_BREAKDOWN, TABLE2, TABLE3, TABLE4
from repro.experiments.presets import bench_config
from repro.fl.config import ExperimentConfig
from repro.fl.history import History
from repro.scenarios import ScenarioSpec, expand_grid
from tests.fl.test_history import record

#: The figures' datasets; each plots β ∈ {0.1, 0.5} × CR ∈ {0.1, 0.01} panels
#: of every algorithm but BCRS+OPWA (Figs. 7–9) or of all five (Figs. 13–15).
FIGURES = {7: "cifar10", 8: "svhn", 9: "cifar100", 13: "cifar10", 14: "cifar100", 15: "svhn"}


def spec_hash(run) -> str:
    """A config's or a grid cell's run-store key."""
    spec = run if isinstance(run, ScenarioSpec) else ScenarioSpec.from_config(run, name="cell")
    return spec.spec_hash()


def recipes() -> dict:
    """Panel → the runs its benchmark test made before the claims grid held it,
    spelled as that test spelled them: ``run_grid(base, axes)``'s cells, then
    each ``run_experiment(config)``."""
    def cifar10(algorithm, **shape):
        return bench_config("cifar10", algorithm, **shape)

    out = {}
    for beta, cr in product((0.1, 0.5), (0.1, 0.01)):
        base = cifar10("bcrs_opwa", beta=beta, compression_ratio=cr)
        out["table4", beta, cr] = expand_grid(base, {"gamma": [3.0, 5.0, 7.0]})
        shape = dict(beta=beta, rounds=50, compression_ratio=cr)
        out["fig10", beta, cr] = [cifar10(a, **shape) for a in ["fedavg", "topk", "eftopk", "bcrs"]]
    out["fig6", 0.1] = [
        cifar10("bcrs", compression_ratio=cr, beta=0.1, rounds=10, volume_override_bits=4.7e7)
        for cr in [0.01, 0.1]
    ]
    for beta in [0.5, 0.1]:
        base = cifar10("bcrs_opwa", beta=beta, compression_ratio=0.1)
        gammas = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        out["fig11", beta] = [*expand_grid(base, {"gamma": gammas}), cifar10("fedavg", beta=beta)]
    for n in [16, 20]:
        shape = dict(beta=0.1, compression_ratio=0.01, num_clients=n, num_train=1600)
        gammas = [2.0, 5.0, 8.0, 11.0, 14.0]
        out["fig12", n] = [*expand_grid(cifar10("bcrs_opwa", **shape), {"gamma": gammas}),
                           cifar10("topk", **shape)]
    a = dict(beta=0.1, compression_ratio=0.01, rounds=40)
    out["A1", "norm_mode"] = expand_grid(
        cifar10("bcrs", **a), {"norm_mode": ["sum", "max", "none"]}
    )
    out["A2", "required_overlap"] = expand_grid(
        cifar10("bcrs_opwa", **a), {"required_overlap": [1, 2, 3]}
    )
    out["A3", "benchmark"] = expand_grid(cifar10("bcrs", **a), {"benchmark": ["max", "median"]})
    a = dict(beta=0.1, compression_ratio=0.05, rounds=40)
    algorithms = ["topk", "deadline_topk", "bcrs", "bcrs_opwa"]
    out["A4", "algorithm"] = expand_grid(cifar10("bcrs_opwa", **a), {"algorithm": algorithms})
    out["A5", "server optimizer"] = [cifar10("bcrs_opwa", **a, **opt) for opt in [
        {}, dict(server_momentum=0.5, server_step=0.5), dict(server_momentum=0.9, server_step=0.1),
        dict(server_optimizer="adam", server_step=0.03),
    ]]
    return out


#: Distinct runs of each sweep's panels, keyed by the artifact that names them.
SWEEP_RUNS = {"table4": 12, "fig6": 2, "fig10": 14, "fig11": 14, "fig12": 12,
              "A1": 3, "A2": 3, "A3": 2, "A4": 4, "A5": 4}


def history(*accs, actual=1.0, maximum=2.0, minimum=0.5) -> History:
    h = History()
    for i, acc in enumerate(accs):
        h.append(record(i, acc=acc, actual=actual, maximum=maximum, minimum=minimum))
    return h


def paper_runs() -> dict:
    """Hand-built runs of every grid cell, ending at the paper's numbers where
    it has them: Tables 2 and 4's final accuracies, Table 3's seconds to 40 %
    (FedAvg's Max/Min too) and Fig. 6's per-round bars; 0.1 → 0.2 elsewhere."""
    runs = {p: {v: history(0.1, 0.2) for v in panel} for p, panel in paper_grid().items()}
    for p in PANELS:
        runs[p] = {a: history(0.0, acc) for a, acc in TABLE2[p[0]][p[1:]].items()}
    for (beta, cr), accs in TABLE4.items():
        runs["table4", beta, cr] = {float(g): history(0.0, acc) for g, acc in accs.items()}
    for p in TABLE3_PANELS:
        runs[p] = {a: history(0.5, actual=TABLE3[a][p[2]][0]) for a in ALGORITHMS[:4]}
        _, mx, mn = TABLE3["fedavg"][p[2]]
        runs[p]["fedavg"] = history(0.5, actual=TABLE3["fedavg"][p[2]][0], maximum=mx, minimum=mn)
    for cr, (compress, train, dense, bcrs) in FIG6_BREAKDOWN.items():
        h = History()
        h.append(replace(record(0, acc=0.5, actual=bcrs, maximum=dense, minimum=0.0),
                         compress_seconds=compress, train_seconds=train))
        runs[FIG6][cr] = h
    return runs


class TestGrid:
    def test_accuracy_grid_is_54_distinct_runs(self):
        grid = paper_grid()
        assert sum(len(grid[p]) for p in PANELS) == 60
        assert len({spec_hash(c) for p in PANELS for c in grid[p].values()}) == 54
        assert len({spec_hash(c) for p in TABLE3_PANELS for c in grid[p].values()}) == 7

    def test_each_sweep_is_its_distinct_runs(self):
        grid = paper_grid()
        runs = {}
        for p, panel in grid.items():
            if p not in PANELS + TABLE3_PANELS:
                runs.setdefault(p[0], set()).update(spec_hash(c) for c in panel.values())
        assert {k: len(v) for k, v in runs.items()} == SWEEP_RUNS
        # Sweeps share runs with Table 2 and with each other (γ 7 at CR 0.1 is
        # Table 2's BCRS+OPWA, Table 4's and Fig. 11's): 115 distinct in all.
        assert len({spec_hash(c) for panel in grid.values() for c in panel.values()}) == 115

    @pytest.mark.parametrize("panel", list(recipes()), ids=str)
    def test_each_sweep_cell_is_its_recipe(self, panel):
        assert [spec_hash(c) for c in paper_grid()[panel].values()] == [
            spec_hash(run) for run in recipes()[panel]
        ]

    def test_fig12_optimum_bound_is_half_the_cohort(self):
        grid = paper_grid()
        bounded = [c for c in CLAIMS if c.name.startswith("best gamma >= |S_t|/2")]
        assert len(bounded) == 2
        for claim in bounded:
            (panel,) = claim.cells
            assert claim.bound == grid[panel]["topk"].clients_per_round / 2

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

    def test_claims_asserted_and_reported(self):
        assert (len(CLAIMS), len(REPORTED)) == (31, 8)
        fig6 = [c.name for c in REPORTED if c.cells == (FIG6,)]
        assert fig6 == ["(uncompressed - bcrs comm) / compress time per round > 10, each CR"]

    def test_table_lists_every_claim_and_cell(self):
        text = claims_table(paper_runs())
        for claim in CLAIMS + REPORTED:
            assert claim.name in text
        assert len(text.split("\n\n")[1].splitlines()) == 2 + 140
