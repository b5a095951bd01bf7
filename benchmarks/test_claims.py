"""Tables 2–4, Figs. 6–15 and ablations A1–A5 — every shape claim over runs, asserted once.

One grid of presets runs once (:mod:`repro.experiments.claims`): Table 2's
per-algorithm panels, Table 3's 60-round panels, and one panel per sweep of
Table 4 (γ), Fig. 6 (CR), Fig. 10 (algorithm, 50 rounds), Figs. 11–12 (γ
next to a baseline) and ablations A1–A5 (``norm_mode``, ``required_overlap``,
``benchmark``, straggler policy, server optimizer). Each asserted claim is
one test case over the panels it names, and the claims table prints every
claim (holds in k/n panels, measured min/median/max, the paper's value) and
every cell (final accuracy next to Tables 2 and 4, time to 40 % next to
Table 3's, accuracy every 10 rounds). ``REPRO_BENCH_SCALE=5`` runs the
accuracy grid at the paper's 200 rounds.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.claims import CLAIMS, claims_table, paper_grid
from repro.scenarios import RunStore, run_grid


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Panel → variant → history; the store runs each distinct preset once."""
    store = RunStore(tmp_path_factory.mktemp("runs"))

    def run(config):
        return run_grid(config, {}, store=store).cells[0][1]

    return {p: {v: run(c) for v, c in cfgs.items()} for p, cfgs in paper_grid().items()}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.name)
def test_claim(runs, claim):
    assert {cell: v for cell, (v, ok) in claim.evaluate(runs).items() if not ok} == {}


def test_claims_table(runs):
    emit("Paper claims — Tables 2-4, Figs. 6-15 and ablations A1-A5", claims_table(runs))
