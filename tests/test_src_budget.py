"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after the seven compressors no run
#: selected were retired (14,448 before: −143 for Random-K, the threshold
#: sparsifier, the uniform quantizer, sign compression, their registrations,
#: and the CLI's per-verb imports).
SRC_LINE_CEILING = 14_305

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
