"""Every ``ExperimentConfig`` field, and every value a field may name, is
set by something other than a test.

A field only ``tests/`` set is a knob with a code path beneath it that no
run reaches. ``tests/test_src_reachability.py`` keeps unreached *modules*
and *names* out of ``src/``; this file does the same for config fields and
for the names in each registry a field is validated against (``model``,
``dataset``, ``compressor`` and every choice tuple): a name counts as
reached when it is a string literal somewhere in the same scanned
directories outside the package that defines it.

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

Each field, and each (field, name) pair, is its own test case, so a failure
names it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.compression.registry import available_compressors
from repro.core.bcrs import BENCHMARK_RULES
from repro.core.coefficients import NORM_MODES
from repro.data.datasets import DATASET_SPECS
from repro.fl import config as fl_config
from repro.fl.config import ExperimentConfig
from repro.nn.models import MODEL_BUILDERS

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")
#: Relative to the repo root; a directory excludes everything below it.
EXCLUDED = ("src/repro/fl/config.py", "src/repro/testing")
SETTER_CALLS = frozenset(
    {"ExperimentConfig", "with_", "with_overrides", "paper_config", "bench_config", "replace", "dict"}
)
#: Fields only tests may set, each with its reason.
ALLOWED_UNSET: dict[str, str] = {}

_CONFIG = "src/repro/fl/config.py"
#: Each validated field's legal names and where they are defined (relative
#: to the repo root; a directory covers everything below it). A literal in
#: the defining place is the definition, not a use.
REGISTRIES: dict[str, tuple[tuple[str, ...], str]] = {
    "model": (tuple(MODEL_BUILDERS), "src/repro/nn"),
    "dataset": (tuple(DATASET_SPECS), "src/repro/data/datasets.py"),
    "compressor": (tuple(available_compressors()), "src/repro/compression"),
    "algorithm": (fl_config.ALGORITHMS, _CONFIG),
    "mode": (fl_config.MODES, _CONFIG),
    "late_policy": (fl_config.LATE_POLICIES, _CONFIG),
    "edge_assignment": (fl_config.EDGE_ASSIGNMENTS, _CONFIG),
    "edge_sync": (fl_config.EDGE_SYNC_MODES, _CONFIG),
    "adversary": (fl_config.ADVERSARIES, _CONFIG),
    "aggregator": (fl_config.AGGREGATORS, _CONFIG),
    "backend": (fl_config.BACKENDS, "src/repro/exec"),
    "contention": (fl_config.CONTENTION_MODES, "src/repro/network/transport.py"),
    "norm_mode": (NORM_MODES, "src/repro/core/coefficients.py"),
    "benchmark": (BENCHMARK_RULES, "src/repro/core/bcrs.py"),
}
_PINNED_CELL = (
    "pinned by the {} cell of tests/fl/test_round_paths_pinned.py and by the "
    "compressor-pool tests; retiring it is a separate change"
)
_POOL = "covered by the compressor-pool tests; retiring it is a separate change"
#: Registry names only tests select, each with its reason.
ALLOWED_UNREACHED: dict[tuple[str, str], str] = {
    ("compressor", "randomk"): _PINNED_CELL.format("sync-randomk"),
    ("compressor", "ef_randomk"): _PINNED_CELL.format("sync-ef_randomk-lossy"),
    ("compressor", "ef_sign"): _POOL,
    ("compressor", "qsgd4"): _POOL,
    ("compressor", "sign"): _POOL,
    ("compressor", "uniform8"): _POOL,
}

_GRID_AXIS = re.compile(r"--grid\s+([A-Za-z_]\w*)=")


def _python_files(repo: Path, excluded_paths=EXCLUDED):
    excluded = [repo / e for e in excluded_paths]
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


def string_literals(repo: Path = REPO, defined_in: str = _CONFIG) -> set[str]:
    """Every string constant in the scanned files outside ``defined_in``
    (and outside ``repro.testing``)."""
    found: set[str] = set()
    for path in _python_files(repo, ("src/repro/testing", defined_in)):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def unreached_names(field: str, names, defined_in: str, repo: Path = REPO) -> list[str]:
    """The ``names`` of ``field`` no scanned literal selects, allowlist excluded."""
    found = string_literals(repo, defined_in)
    return [n for n in names if n not in found and (field, n) not in ALLOWED_UNREACHED]


REGISTRY_NAMES = [(field, name) for field, (names, _) in REGISTRIES.items() for name in names]


@pytest.fixture(scope="module")
def literals_by_definition() -> dict[str, set[str]]:
    return {where: string_literals(defined_in=where) for _, where in REGISTRIES.values()}


@pytest.mark.parametrize("field,name", REGISTRY_NAMES, ids=[f"{f}-{n}" for f, n in REGISTRY_NAMES])
def test_registry_name_is_selected_outside_tests(field, name, literals_by_definition):
    reached = name in literals_by_definition[REGISTRIES[field][1]]
    assert reached or (field, name) in ALLOWED_UNREACHED, (
        f"{field}={name!r} is selected only by tests: delete it and the code "
        "path only it reaches, or give it a preset, scenario, workload or example"
    )


def test_unreached_registry_name_fails(tmp_path):
    (tmp_path / "src" / "repro" / "nn").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "nn" / "models.py").write_text(
        "MODEL_BUILDERS = {'mlp': 1, 'cnn': 2}\n"  # the definition never counts
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("cfg = paper_config(model='mlp')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_cnn.py").write_text("ExperimentConfig(model='cnn')\n")
    got = unreached_names("model", ("mlp", "cnn"), "src/repro/nn", repo=tmp_path)
    assert got == ["cnn"]
