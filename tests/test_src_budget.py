"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after each observability artifact kept
#: one export format and ``repro.analysis`` was deleted but for
#: ``retained_mass`` (13,611 before: the JSONL trace and Prometheus exports,
#: five analysis modules, ``overlap_counts`` and ``param_slices``; the
#: rows cap sized by each mode's fold capacity added back 25).
SRC_LINE_CEILING = 13_251


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
