"""``src/`` size is a tracked metric (ROADMAP needle 2): it may not grow
unnoticed. The ceiling is the line count the last PR that changed it left
behind; a PR that needs more raises it in the same change and says why in
CHANGES.md, a PR that deletes code lowers it."""

from pathlib import Path

#: Physical lines of ``src/**/*.py`` after the one-class MLP replaced the
#: layer graph (13,449 before: ``nn/layers.py``, ``sequential.py``,
#: ``models.py``, ``init.py`` and ``params.py`` went for ``nn/mlp.py``, and
#: the process backend forks the simulation's own worker context instead of
#: building a replica model, with no globals-free payload).
SRC_LINE_CEILING = 13_120


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/ has {lines} physical lines, {lines - SRC_LINE_CEILING} over the "
        f"ceiling of {SRC_LINE_CEILING}: delete elsewhere, or change "
        "SRC_LINE_CEILING in tests/test_src_budget.py in this same PR and give "
        "the reason in CHANGES.md"
    )
