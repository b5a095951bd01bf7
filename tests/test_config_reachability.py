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
The scan is ``ast``-based (one parse, ``tests/repo_index.py``) and
deliberately generous: it asks whether any setter exists, not whether it
runs.

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
from repro.nn.mlp import MODELS
from tests.repo_index import REPO, repo_index

#: Relative to the repo root; a directory excludes everything below it.
EXCLUDED = ("src/repro/fl/config.py", "src/repro/testing")
#: Fields only tests may set, each with its reason.
ALLOWED_UNSET: dict[str, str] = {}

_CONFIG = "src/repro/fl/config.py"
#: Each validated field's legal names and where they are defined (relative
#: to the repo root; a directory covers everything below it). A literal in
#: the defining place is the definition, not a use.
REGISTRIES: dict[str, tuple[tuple[str, ...], str]] = {
    "model": (MODELS, "src/repro/nn"),
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


def config_setters(repo: Path = REPO) -> set[str]:
    """Every name the scan finds set outside ``tests/``."""
    index = repo_index(repo)
    names = set().union(*(f.setters for f in index.files if not f.under(*EXCLUDED)))
    for text in index.docs:
        names.update(_GRID_AXIS.findall(text))
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
    index = repo_index(repo)
    for f in index.files:
        if not f.under("src/repro/testing", defined_in):
            found.update(pair for pair in f.selections if pair[0] in fields_)
    for text in index.docs:
        for field, values in _GRID_VALUES.findall(text):
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
    (tmp_path / "src" / "repro" / "nn" / "mlp.py").write_text(
        "MODELS = ('mlp', 'cnn')\n"  # the definition never counts
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
