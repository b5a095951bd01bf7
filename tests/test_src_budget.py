"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after a hydrated client began holding
#: its shard as corpus row indices and an evicted one's loader stream as
#: parked state words (12,931 before: the park/restore pair added more than
#: ``BatchLoader``'s ``shuffle`` and ``drop_last`` knobs removed).
SRC_LINE_CEILING = 12_959


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
