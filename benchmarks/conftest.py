"""Shared helpers for the table/figure benchmark suite.

Every bench regenerates paper artifacts at CPU scale and prints measured
numbers next to the paper's (visible with ``pytest -s`` or in the benchmark
run's captured output). Assertions check the *shape* claims — orderings,
crossovers, rough factors — not absolute values (our substrate is a
synthetic-data simulator; see docs/ARCHITECTURE.md). Every claim over
simulated runs lives in :mod:`repro.experiments.claims` and is asserted by
``test_claims.py``; the other files read what no history keeps.
"""

from __future__ import annotations

import sys

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
