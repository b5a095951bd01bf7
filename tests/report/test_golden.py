"""Byte-determinism of the full page and of the text summaries, each pinned
by a committed golden file.

Regenerate after an intentional rendering change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/report/test_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

from tests.report._artifacts import (
    MANIFEST,
    make_hier_sweep,
    make_history,
    make_metrics,
    make_spans,
    make_sweep,
)

from repro.viz.ascii import summarize_comm, summarize_sweep
from repro.report import render_report
from repro.viz.ascii import ascii_comm_table, ascii_sweep_grid

GOLDEN = Path(__file__).parent / "golden_report.html"
GOLDEN_SUMMARIES = Path(__file__).parent / "golden_summaries.txt"


def render_full_page() -> str:
    return render_report(
        history=make_history((0.2, 0.35, 0.5), staleness=True),
        sweep=make_sweep(),
        trace=make_spans(),
        metrics=make_metrics(),
        manifest=MANIFEST,
        title="golden fixture",
        target_acc=0.3,
    )


def render_summaries() -> str:
    """The text renderers over the same literal fixtures, one block each."""
    h = make_history((0.2, 0.35, 0.5), staleness=True)
    blocks = {
        "summarize_sweep": summarize_sweep(make_sweep(), target=0.3),
        "ascii_sweep_grid": ascii_sweep_grid(make_sweep(), "gamma", "include_downlink"),
        "ascii_comm_table": ascii_comm_table(h, top=2),
        "summarize_comm": summarize_comm(h),
        "summarize_sweep (edge-width sweep)": summarize_sweep(make_hier_sweep()),
    }
    return "".join(f"== {name} ==\n{text}\n\n" for name, text in blocks.items())


def test_rendering_is_byte_deterministic():
    """Fresh artifact objects → byte-identical pages (no ids, no clocks)."""
    assert render_full_page() == render_full_page()


def test_page_is_self_contained():
    page = render_full_page()
    assert page.count("<html") == 1 and page.count("</html>") == 1
    # The only URL anywhere is the SVG XML namespace.
    assert page.replace("http://www.w3.org/2000/svg", "").count("http") == 0
    assert "<script" not in page and "@import" not in page

    # One section per artifact supplied, plus the manifest.
    for anchor in ("manifest", "history", "sweep", "trace", "metrics"):
        assert f'<section id="{anchor}">' in page


def test_matches_committed_golden():
    page = render_full_page()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(page)
    assert GOLDEN.is_file(), "golden missing — run with REGEN_GOLDEN=1"
    assert page == GOLDEN.read_text(), (
        "rendering drifted from the golden page; if intentional, regenerate "
        "with REGEN_GOLDEN=1"
    )


def test_text_summaries_match_committed_golden():
    text = render_summaries()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_SUMMARIES.write_text(text)
    assert GOLDEN_SUMMARIES.is_file(), "golden missing — run with REGEN_GOLDEN=1"
    assert text == GOLDEN_SUMMARIES.read_text(), (
        "text summaries drifted from the golden; if intentional, regenerate "
        "with REGEN_GOLDEN=1"
    )
