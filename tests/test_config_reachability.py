"""Every ``ExperimentConfig`` field, and every value a field may name, is
set by something other than a test.

A field only ``tests/`` set is a knob with a code path beneath it that no
run reaches. ``tests/test_src_reachability.py`` keeps unreached *modules*
and *names* out of ``src/``; this file does the same for config fields and
for the names in each registry a field is validated against (``model``,
``dataset``, ``compressor`` and every choice tuple).

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

A registry name counts as reached only where something *selects* it, in
the same scanned files outside the place that defines it:

- the value of a ``field=`` keyword or of a ``"field":`` dict entry — a
  literal, or a module-level name list such as a grid axis
  (``{"algorithm": ALGS}``);
- a CLI ``choices=`` of the flag that sets the field;
- an algorithm's ``compressor_name``;
- the field's default;
- a documented ``--grid field=a,b``.

A bare string — a table header, a label, a dispatch comparison — selects
nothing and does not count.

Each field, and each (field, name) pair, is its own test case, so a failure
names it.
"""

from __future__ import annotations

import ast
import importlib
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
#: Registry names only tests select, each with its reason.
ALLOWED_UNREACHED: dict[tuple[str, str], str] = {}

_GRID_AXIS = re.compile(r"--grid\s+([A-Za-z_]\w*)=")
_GRID_VALUES = re.compile(r"--grid\s+([A-Za-z_]\w*)=([\w.,-]+)")


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


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Module-level ``NAME = expr`` bindings, and ``from repro.X import NAME``
    as ``(module, name)``: a selecting position may name either instead of
    spelling a literal."""
    consts: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    consts[target.id] = node.value
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                consts[alias.asname or alias.name] = (node.module, alias.name)
    return consts


def _values(node, consts: dict) -> set[str]:
    """The string names ``node`` spells: a literal, a literal list or tuple,
    or a module-level constant (or ``repro`` import) holding either."""
    if isinstance(node, ast.Constant):
        return {node.value} if isinstance(node.value, str) else set()
    if isinstance(node, (ast.Tuple, ast.List)):
        return {e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    if isinstance(node, ast.Name) and node.id in consts:
        target = consts[node.id]
        if isinstance(target, tuple):  # imported: read the live value
            value = getattr(importlib.import_module(target[0]), target[1], None)
            return {v for v in value if isinstance(v, str)} if isinstance(value, tuple) else set()
        return _values(target, {k: v for k, v in consts.items() if k != node.id})
    return set()


def _flag_field(call: ast.Call) -> str | None:
    """The config field an ``add_argument("--flag-name", ...)`` call stores into."""
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value.lstrip("-").replace("-", "_")
    return None


def _choices(call: ast.Call) -> ast.expr | None:
    return next((kw.value for kw in call.keywords if kw.arg == "choices"), None)


def _selections(tree: ast.Module, fields_: set[str]) -> set[tuple[str, str]]:
    """Every ``(field, name)`` the file selects: ``field=name`` keywords,
    ``"field": name`` dict entries, CLI ``choices=``, ``compressor_name``."""
    consts = _module_constants(tree)
    found: set[tuple[str, str]] = set()

    def add(field, node):
        if field in fields_:
            found.update((field, v) for v in _values(node, consts))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                add(kw.arg, kw.value)
            if _call_name(node.func) == "add_argument" and (choices := _choices(node)):
                add(_flag_field(node), choices)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant):
                    add(key.value, value)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
            # A CONFIG_FLAGS entry: (flag, field, dict(choices=...)).
            field, kwargs = node.elts[1], node.elts[2]
            if isinstance(field, ast.Constant) and isinstance(kwargs, ast.Call) and (
                choices := _choices(kwargs)
            ):
                add(field.value, choices)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "compressor_name" for t in node.targets
        ):
            add("compressor", node.value)
    return found


def selected_names(repo: Path = REPO, defined_in: str = _CONFIG) -> set[tuple[str, str]]:
    """Every ``(field, name)`` a selecting position names, in the scanned
    files outside ``defined_in`` (and ``repro.testing``), in a documented
    ``--grid field=a,b``, or as the field's default."""
    fields_ = set(REGISTRIES)
    found = {
        (f.name, f.default)
        for f in fields(ExperimentConfig)
        if f.name in fields_ and isinstance(f.default, str)
    }
    for path in _python_files(repo, ("src/repro/testing", defined_in)):
        found |= _selections(ast.parse(path.read_text(), filename=str(path)), fields_)
    for path in _doc_files(repo):
        for field, values in _GRID_VALUES.findall(path.read_text()):
            if field in fields_:
                found.update((field, v) for v in values.split(","))
    return found


def unreached_names(field: str, names, defined_in: str, repo: Path = REPO) -> list[str]:
    """The ``names`` of ``field`` nothing outside tests selects, allowlist excluded."""
    found = selected_names(repo, defined_in)
    return [n for n in names if (field, n) not in found and (field, n) not in ALLOWED_UNREACHED]


REGISTRY_NAMES = [(field, name) for field, (names, _) in REGISTRIES.items() for name in names]


@pytest.fixture(scope="module")
def selected_by_definition() -> dict[str, set[tuple[str, str]]]:
    return {where: selected_names(defined_in=where) for _, where in REGISTRIES.values()}


@pytest.mark.parametrize("field,name", REGISTRY_NAMES, ids=[f"{f}-{n}" for f, n in REGISTRY_NAMES])
def test_registry_name_is_selected_outside_tests(field, name, selected_by_definition):
    reached = (field, name) in selected_by_definition[REGISTRIES[field][1]]
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


#: One file per selecting position, each naming compressor ``sketch``.
SELECTING_SNIPPETS = {
    "keyword": "cfg = bench_config('cifar10', 'topk', compressor='sketch')\n",
    "dict-value": "OVERRIDES = {'compressor': 'sketch', 'rounds': 3}\n",
    "grid-axis": "NAMES = ['topk', 'sketch']\nreport = run_grid(base, {'compressor': NAMES})\n",
    "choices": "parser.add_argument('--compressor', choices=('topk', 'sketch'))\n",
    "config-flag": "CONFIG_FLAGS = (('--comp', 'compressor', dict(choices=('sketch',))),)\n",
    "compressor_name": "class SketchAlgorithm(TopKAlgorithm):\n    compressor_name = 'sketch'\n",
}


def _one_example(tmp_path: Path, source: str) -> Path:
    (tmp_path / "src" / "repro" / "compression").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "compression" / "registry.py").write_text(
        "register_compressor('sketch', Sketch)\n"  # the definition never counts
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "test_demo.py").write_text(source)
    return tmp_path


def test_a_bare_string_selects_nothing(tmp_path):
    """A table header, a label or a comparison spells the name but selects
    nothing: the name stays unreached."""
    repo = _one_example(
        tmp_path,
        "rows = [['sketch', 0.5]]\n"
        "emit(format_table(['sketch', 'final acc'], rows))\n"
        "if cfg.compressor == 'sketch':\n    label = 'sketch'\n",
    )
    assert unreached_names("compressor", ("sketch",), "src/repro/compression", repo=repo) == [
        "sketch"
    ]


@pytest.mark.parametrize("position", sorted(SELECTING_SNIPPETS))
def test_each_selecting_position_reaches_the_name(tmp_path, position):
    repo = _one_example(tmp_path, SELECTING_SNIPPETS[position])
    assert unreached_names("compressor", ("sketch",), "src/repro/compression", repo=repo) == []
