"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after each round stage kept one path
#: (13,993 before: the thread backend's round-robin and the async wave
#: split, ``DeviceProfile.upload_time``/``download_time``, the exclusive
#: ``resolve_uploads`` branch and ``round_pipe``, BCRS's hand-built round
#: times, the allocating aggregation branches and the copying server step,
#: the constant ``TransferRecord.contended``, and fourteen methods only
#: tests called).
SRC_LINE_CEILING = 13_817


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
