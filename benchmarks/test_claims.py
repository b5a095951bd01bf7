"""Table 2, Table 3 and Figs. 7–9 / 13–15 — every shape claim, asserted once.

One grid of per-algorithm presets runs once (:mod:`repro.experiments.claims`);
each asserted claim is one test case over the panels it names, and the claims
table prints every claim (holds in k/n panels, measured min/median/max, the
paper's value) and every cell (final accuracy next to Table 2's, time to 40 %
next to Table 3's, accuracy every 10 rounds). ``REPRO_BENCH_SCALE=5`` runs the
accuracy grid at the paper's 200 rounds.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.claims import CLAIMS, claims_table, paper_grid
from repro.scenarios import run_grid


@pytest.fixture(scope="module")
def runs(_runs):
    """Panel → algorithm → history; the session store runs each distinct preset once."""
    def run(config):
        return run_grid(config, {}, store=_runs).cells[0][1]

    return {p: {a: run(c) for a, c in cfgs.items()} for p, cfgs in paper_grid().items()}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.name)
def test_claim(runs, claim):
    assert {cell: v for cell, (v, ok) in claim.evaluate(runs).items() if not ok} == {}


def test_claims_table(runs):
    emit("Paper claims — Tables 2 and 3, Figs. 7-9 and 13-15", claims_table(runs))
