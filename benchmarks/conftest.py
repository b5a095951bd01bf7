"""Shared helpers for the table/figure benchmark suite.

Every bench regenerates one paper artifact at CPU scale and prints measured
numbers next to the paper's (visible with ``pytest -s`` or in the benchmark
run's captured output). Assertions check the *shape* claims — orderings,
crossovers, rough factors — not absolute values (our substrate is a
synthetic-data simulator; see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import sys

import pytest

from repro.fl import run_experiment
from repro.scenarios import RunStore, run_grid

#: Result blocks accumulated during the run; flushed into the terminal
#: summary so the regenerated tables/figures appear in the bench log even
#: under pytest's fd-level capture — the bench output *is* the artifact.
_BLOCKS: list[tuple[str, str]] = []


def emit(title: str, body: str) -> None:
    """Record a labelled result block (also printed live with ``-s``)."""
    _BLOCKS.append((title, body))
    print(f"\n================ {title} ================", file=sys.stderr)
    print(body, file=sys.stderr)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every emitted artifact after the test summary."""
    if not _BLOCKS:
        return
    tw = terminalreporter
    tw.section("regenerated paper artifacts (paper vs measured)")
    for title, body in _BLOCKS:
        tw.write_line("")
        tw.write_line(f"================ {title} ================")
        for line in body.splitlines():
            tw.write_line(line)


@pytest.fixture(scope="session")
def _runs(tmp_path_factory) -> RunStore:
    return RunStore(tmp_path_factory.mktemp("runs"))


@pytest.fixture
def once(_runs):
    """Call ``fn(*args, **kwargs)``, running each simulated config once a session.

    ``run_grid`` and ``run_experiment`` go through a session
    :class:`~repro.scenarios.RunStore` keyed by each cell's ``spec_hash`` —
    the full resolved config, ``rounds`` and ``backend`` included — so a cell
    two grids share runs once; runs are deterministic, and every caller gets
    its own copy of the history. Any other ``fn`` is a plain call, never
    cached: a timing, or a live ``Simulation`` read for what no history
    keeps (``last_overlap``, ``spans``). Wall-clock numbers come from
    ``python3 -m bench`` (see ``bench/README.md``).
    """

    def _run(fn, *args, **kwargs):
        if fn is run_grid:
            return run_grid(*args, store=_runs, **kwargs)
        if fn is run_experiment:
            (config,) = args
            return run_grid(config, {}, store=_runs).cells[0][1]
        return fn(*args, **kwargs)

    return _run
