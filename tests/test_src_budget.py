"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after Table 4, Figs. 6 and 10–12 and
#: ablations A1–A5 joined the claims grid (13,310 before: their panels and
#: 18 claims grew ``repro.experiments.claims`` by 147 lines while nine
#: ``benchmarks/`` files, 374 lines, went; moving the text summaries into
#: ``repro.viz.ascii`` and one ingress admission took 17 off, and the
#: ``sim_trace`` split of the golden harness added 7).
SRC_LINE_CEILING = 13_449


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
