"""Every ``ExperimentConfig`` field is set by something other than a test.

A field only ``tests/`` set is a knob with a code path beneath it that no
run reaches. ``tests/test_src_reachability.py`` keeps unreached *modules*
and *names* out of ``src/``; this file does the same for config fields.

A field counts as set when, somewhere in ``src/`` (minus the config module
itself and ``repro.testing``), ``bench/``, ``benchmarks/``, ``examples/`` or
``scripts/``, its name is

- a keyword of a call to ``ExperimentConfig``, ``with_``, ``with_overrides``,
  ``paper_config``, ``bench_config``, ``replace`` or ``dict``;
- a string key of a dict literal (scenario overrides, preset tables);
- the field of a ``CONFIG_FLAGS`` entry (a CLI flag);

or when ``README.md``, ``docs/*.md`` or ``.github/`` runs ``--grid NAME=``.
The scan is ``ast``-based and deliberately generous: it asks whether any
setter exists, not whether it runs.

Each field is its own test case, so a failure names the field.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.fl.config import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")
#: Relative to the repo root; a directory excludes everything below it.
EXCLUDED = ("src/repro/fl/config.py", "src/repro/testing")
SETTER_CALLS = frozenset(
    {"ExperimentConfig", "with_", "with_overrides", "paper_config", "bench_config", "replace", "dict"}
)
#: Fields only tests may set, each with its reason.
ALLOWED_UNSET: dict[str, str] = {}

_GRID_AXIS = re.compile(r"--grid\s+([A-Za-z_]\w*)=")


def _python_files(repo: Path):
    excluded = [repo / e for e in EXCLUDED]
    for top in SCAN_DIRS:
        for path in sorted((repo / top).rglob("*.py")):
            if not any(path == e or e in path.parents for e in excluded):
                yield path


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _code_setters(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node.func) in SETTER_CALLS:
            names |= {kw.arg for kw in node.keywords if kw.arg is not None}
        elif isinstance(node, ast.Dict):
            names |= {
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CONFIG_FLAGS" for t in node.targets
        ):
            for entry in getattr(node.value, "elts", ()):
                field = entry.elts[1] if isinstance(entry, ast.Tuple) else None
                if isinstance(field, ast.Constant) and isinstance(field.value, str):
                    names.add(field.value)
    return names


def _doc_files(repo: Path):
    yield from (p for p in [repo / "README.md"] if p.is_file())
    yield from sorted((repo / "docs").glob("*.md"))
    yield from sorted(p for p in (repo / ".github").rglob("*") if p.is_file())


def config_setters(repo: Path = REPO) -> set[str]:
    """Every name the scan finds set outside ``tests/``."""
    names: set[str] = set()
    for path in _python_files(repo):
        names |= _code_setters(ast.parse(path.read_text(), filename=str(path)))
    for path in _doc_files(repo):
        names.update(_GRID_AXIS.findall(path.read_text()))
    return names


def unset_fields(field_names, repo: Path = REPO) -> list[str]:
    """The given fields nothing outside ``tests/`` sets, allowlist excluded."""
    found = config_setters(repo)
    return [n for n in field_names if n not in found and n not in ALLOWED_UNSET]


FIELDS = [f.name for f in fields(ExperimentConfig)]


@pytest.fixture(scope="module")
def setters() -> set[str]:
    return config_setters()


@pytest.mark.parametrize("name", FIELDS)
def test_field_has_a_setter_outside_tests(name, setters):
    assert name in setters or name in ALLOWED_UNSET, (
        f"ExperimentConfig.{name} is set only by tests: delete the field and the "
        "code path it selects, or give it a preset, scenario, flag or documented "
        "--grid axis"
    )


def test_unset_field_fails(tmp_path):
    (tmp_path / "src" / "repro" / "fl").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "fl" / "config.py").write_text(
        "ExperimentConfig(knob=1.0)\n"  # the config module itself never counts
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "cfg = paper_config('cifar10', 'topk', rounds=3)\n"
        "cfg = cfg.with_(seed=1)\n"
        "OVERRIDES = {'gamma': 7.0}\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("python -m repro sweep --grid\nbeta=0.1,0.5\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_knob.py").write_text("ExperimentConfig(knob=2.0)\n")
    fields_ = ["rounds", "seed", "gamma", "beta", "knob"]
    assert unset_fields(fields_, repo=tmp_path) == ["knob"]
