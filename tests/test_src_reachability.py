"""No ``src/repro`` code exists only for its own tests (ROADMAP needle 2).

Imports are followed, by ``ast``, from the program's real entry points:
``repro.cli``, ``repro.__main__``, ``repro.simtime`` (the module of
``make_simulation``) and every file under ``bench/``, ``benchmarks/``,
``examples/`` and ``scripts/``. Two rules hold over what that walk reaches:

1. every ``src/repro`` module is reached;
2. every ``__all__`` name is used by something the walk reaches.

A third rule covers what ``__all__`` does not list, the members of classes:

3. every public method or property of a ``src/repro`` class has its name
   used as an attribute (``x.name``) or as a string (``getattr(x,
   "name")``) somewhere outside ``tests/`` — in ``src/`` or an entry
   directory. Names are matched without types, so a use of one class's
   ``step`` keeps every class's ``step``: the rule can miss a dead method,
   never flag a live one.

What counts as a use: an import whose bound name the importing file loads,
and a load of a module's own top-level name from another of its top-level
statements. A name an annotation mentions — of an argument, a return or an
annotated assignment — is not loaded: a type nothing constructs, calls or
subclasses is unused however many signatures name it. A package
``__init__``'s re-export — its import line or its ``__all__`` entry — is
not a use, but code in the ``__init__`` that loads the import is
(``exec/__init__.py::make_backend`` constructing ``SerialBackend``). ``tests/`` is never walked, so what only a test
imports is unreached. ``bench/layers.py`` imports every module by walking
the package at run time; that dynamic import is deliberately not followed.
An allowlisted module is kept on purpose, so it is walked as an entry
point too: what it calls stays for as long as it does.

Each module is its own test case, so a failure names the module. The
facts come from one parse of the repository (``tests/repo_index.py``); the
negative cases run the rules on a small synthetic package.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from tests.repo_index import REPO, repo_index

ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.simtime")
ENTRY_DIRS = ("bench", "benchmarks", "examples", "scripts")

#: Modules (with everything below them) that only tests may reach.
ALLOWED_MODULES = {
    "repro.testing": "test support by design: the golden-history harness",
    "repro.io.checkpoint": "ROADMAP item 3 makes resume exact through it or deletes it",
}
#: Exported names that only tests may use.
ALLOWED_NAMES = {
    ("repro.compression.base", "Compressor"): (
        "a typing.Protocol: annotations are its only use by design"
    ),
    ("repro.compression.base", "compression_error"): (
        "the reference metric the compressor tests measure against"
    ),
    ("repro.compression.base", "retained_mass"): (
        "ROADMAP item 4(a) records each round's retained mass through it"
    ),
    ("repro.core.aggregation", "weighted_sparse_sum"): (
        "bench/layers.py wraps it by name as the aggregate layer"
    ),
    ("repro.viz.ascii", "ascii_sweep_grid"): (
        "tests/report/golden_summaries.txt pins it as the text twin of the report's heatmap"
    ),
}
#: Public methods and properties that only tests may use.
ALLOWED_METHODS = {
    ("repro.core.bcrs", "BCRSSchedule", "saved_time"): (
        "ROADMAP item 4 records the window BCRS converts per round, through it"
    ),
    ("repro.utils.rng", "_Key", "generate_state"): (
        "NumPy's seed-sequence protocol: np.random.Generator calls it by name"
    ),
    ("repro.compression.ef", "ErrorFeedback", "memory"): (
        "the EF residual is client state: the exactness suite pins it and "
        "ROADMAP needle 4 reports its growth through it"
    ),
}


def _allowed(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in ALLOWED_MODULES)


@functools.cache
def unreached(root: Path = REPO) -> tuple[list[str], list[str]]:
    """``(modules nothing reaches, "module.name" exports nothing uses)``,
    allowlist entries excluded."""
    index = repo_index(root)
    modules = index.modules
    reached: set[str] = set()
    used: set[tuple[str, str]] = set()
    queue = []

    def reach(module: str) -> None:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                queue.append(modules[prefix])

    def origin(module: str, name: str) -> tuple[str, str | None]:
        """Follow re-exports to where ``module.name`` is defined."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if f"{module}.{name}" in modules:
                return f"{module}.{name}", None
            bound = modules[module].binding(name) if module in modules else None
            if bound is None or bound[0] not in modules:
                break
            module, name = bound
            if name is None:
                return module, None
        return module, name

    def use(module: str, name: str) -> None:
        reach(module)
        module, name = origin(module, name)
        reach(module)
        if name is not None:
            used.add((module, name))

    def scan(f) -> None:
        for module, name, bound, binds_target, _ in f.imports:
            if bound not in f.loads or not module.startswith("repro"):
                continue
            if name is None:
                reach(module)
                target = module if binds_target else bound
            else:
                use(module, name)
                target = f"{module}.{name}"
            if target not in modules:
                continue
            for chain in f.chains.get(bound, ()):
                current = target
                for attr in chain:
                    if f"{current}.{attr}" not in modules:
                        use(current, attr)
                        break
                    current = f"{current}.{attr}"
                    reach(current)
        if f.module is not None:
            used.update((f.module, name) for name in f.self_uses)

    for module in ENTRY_MODULES:
        reach(module)
    for module in modules:
        if _allowed(module):
            reach(module)
    for f in index.files:
        if f.under(*ENTRY_DIRS):
            scan(f)
    while queue:
        scan(queue.pop())

    dead_modules = sorted(m for m in modules if m not in reached and not _allowed(m))
    dead_names = []
    for module in sorted(reached):
        if _allowed(module):
            continue
        for name in modules[module].exports:
            where, defined = origin(module, name)
            if _allowed(where) or (where, defined) in ALLOWED_NAMES:
                continue
            if where not in reached if defined is None else (where, defined) not in used:
                dead_names.append(f"{module}.{name}")
    return dead_modules, dead_names


@functools.cache
def unused_methods(root: Path = REPO) -> list[str]:
    """``"module.Class.name"`` for each public method or property whose name
    nothing outside ``tests/`` uses, allowlist entries excluded."""
    index = repo_index(root)
    used = set().union(*(f.names for f in index.files))
    return sorted(
        f"{module}.{cls}.{name}"
        for module, f in index.modules.items()
        if not _allowed(module)
        for cls, name in f.methods
        if not name.startswith("_")
        and name not in used
        and (module, cls, name) not in ALLOWED_METHODS
    )


_MODULES = repo_index().modules
_CHECKED = sorted(m for m in _MODULES if not _allowed(m))


@pytest.mark.parametrize("module", _CHECKED)
def test_module_is_reached_from_an_entry_point(module):
    dead_modules, _ = unreached()
    assert module not in dead_modules, (
        f"only tests reach {module}: call it from the program or delete it"
    )


@pytest.mark.parametrize("module", [m for m in _CHECKED if _MODULES[m].exports])
def test_module_exports_are_used_outside_tests(module):
    _, dead_names = unreached()
    dead = [name for name in dead_names if name.rsplit(".", 1)[0] == module]
    assert dead == [], (
        f"only tests use {dead}: call them from the program, or delete them "
        "and their __all__ entries"
    )


@pytest.mark.parametrize("module", _CHECKED)
def test_module_methods_are_used_outside_tests(module):
    dead = [name for name in unused_methods() if name.rsplit(".", 2)[0] == module]
    assert dead == [], (
        f"only tests use {dead}: call them from the program, or delete them"
    )


def test_allowlist_entries_exist():
    assert all(m in _MODULES for m in ALLOWED_MODULES)
    assert all(name in _MODULES[m].exports for m, name in ALLOWED_NAMES)
    assert all((c, name) in _MODULES[m].methods for m, c, name in ALLOWED_METHODS)


def _exporting(name: str) -> str:
    return f'__all__ = ["{name}"]\n\n\ndef {name}(x):\n    return x\n'


#: A package every rule passes: ``repro.cli`` reaches each module and uses
#: each export; ``repro.testing`` is allowlisted.
_SYNTHETIC = {
    "cli.py": "from repro.fl import run\nfrom repro.utils.rng import make_rng\n"
    "from repro.utils.validation import validate\n\nrun(validate(make_rng(0)))\n",
    "fl/__init__.py": _exporting("run"),
    "utils/rng.py": _exporting("make_rng"),
    "utils/validation.py": _exporting("validate"),
    **dict.fromkeys(["__init__.py", "utils/__init__.py", "testing/__init__.py", "testing/goldens.py"], ""),
}


def _synthetic_src(tmp_path: Path) -> Path:
    """``src/`` of a repository at ``tmp_path`` holding only :data:`_SYNTHETIC`."""
    for rel, text in _SYNTHETIC.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path / "src"


def test_an_unimported_module_fails(tmp_path):
    src = _synthetic_src(tmp_path)
    (src / "repro" / "fl" / "orphan.py").write_text('"""Nothing imports me."""\n')
    dead_modules, _ = unreached(tmp_path)
    assert dead_modules == ["repro.fl.orphan"]


def test_a_name_only_tests_use_fails(tmp_path):
    src = _synthetic_src(tmp_path)
    path = src / "repro" / "utils" / "validation.py"
    text = path.read_text().replace('__all__ = ["', '__all__ = ["only_tested", "', 1)
    path.write_text(text + "\n\ndef only_tested():\n    return None\n")
    _, dead_names = unreached(tmp_path)
    assert dead_names == ["repro.utils.validation.only_tested"]


def test_a_reexport_is_not_a_use(tmp_path):
    src = _synthetic_src(tmp_path)
    (src / "repro" / "utils" / "orphan.py").write_text('__all__ = ["f"]\n\n\ndef f():\n    pass\n')
    init = src / "repro" / "utils" / "__init__.py"
    init.write_text("from repro.utils.orphan import f\n" + init.read_text())
    dead_modules, _ = unreached(tmp_path)
    assert dead_modules == ["repro.utils.orphan"]


_IMPORTED = "from repro.utils.validation import Marker\n\n\n"


@pytest.mark.parametrize(
    "where, use, flagged",
    [
        ("validation", "def typed(x: Marker) -> Marker:\n    y: Marker = x\n    return y\n", True),
        ("validation", "def typed(*args: Marker, k: Marker, **kw: Marker):\n    pass\n", True),
        ("validation", "async def typed(x: Marker, /) -> Marker:\n    pass\n", True),
        ("validation", "class Holder:\n    field: Marker | None\n", True),
        ("validation", "class Holder:\n    def __init__(self):\n        self.m: Marker = None\n", True),
        ("rng", _IMPORTED + "def typed(x: Marker) -> Marker:\n    return x\n", True),
        ("validation", "def build():\n    return Marker()\n", False),
        ("validation", "def check(x):\n    return isinstance(x, Marker)\n", False),
        ("validation", "class Holder:\n    field: Marker = Marker()\n", False),
        ("rng", _IMPORTED + "class Special(Marker):\n    pass\n", False),
    ],
    ids=[
        "annotated",
        "star-and-keyword-args",
        "async-positional-only",
        "class-field",
        "attribute",
        "imported-and-annotated",
        "called",
        "isinstance",
        "annotated-and-called",
        "imported-and-subclassed",
    ],
)
def test_an_annotation_is_not_a_use(tmp_path, where, use, flagged):
    src = _synthetic_src(tmp_path)
    utils = src / "repro" / "utils"
    validation = utils / "validation.py"
    text = validation.read_text().replace('__all__ = ["', '__all__ = ["Marker", "', 1)
    validation.write_text(text + "\n\nclass Marker:\n    pass\n")
    path = utils / f"{where}.py"
    path.write_text(path.read_text() + "\n\n" + use)
    _, dead_names = unreached(tmp_path)
    assert dead_names == (["repro.utils.validation.Marker"] if flagged else [])


_HOLDER = (
    "\n\nclass Holder:\n"
    "    def _private(self):\n        return self.helper()\n\n"
    "    def helper(self):\n        return 1\n\n"
    "    @property\n    def {name}(self):\n        return 2\n"
)


@pytest.mark.parametrize(
    "name, where, use, flagged",
    [
        ("only_tested", None, "", True),
        ("only_tested", "rng", "def f(x):\n    return x.elsewhere\n", True),
        ("read_elsewhere", "rng", "def f(x):\n    return x.read_elsewhere\n", False),
        ("by_name", "rng", 'def f(x):\n    return getattr(x, "by_name")\n', False),
        ("_hidden", None, "", False),
    ],
    ids=["only-tests", "another-attribute", "attribute", "string", "private"],
)
def test_a_method_only_tests_use_fails(tmp_path, name, where, use, flagged):
    """A public method or property counts only if its name is an attribute
    or a string outside ``tests/``; the module's ``__all__`` does not matter."""
    src = _synthetic_src(tmp_path)
    utils = src / "repro" / "utils"
    validation = utils / "validation.py"
    validation.write_text(validation.read_text() + _HOLDER.format(name=name))
    if where is not None:
        path = utils / f"{where}.py"
        path.write_text(path.read_text() + "\n\n" + use)
    dead = [m for m in unused_methods(tmp_path) if m.startswith("repro.utils.validation.Holder.")]
    assert dead == ([f"repro.utils.validation.Holder.{name}"] if flagged else [])
    # The module rules never see a class member: only rule 3 can flag it.
    assert unreached(tmp_path) == ([], [])


def test_an_allowlisted_module_keeps_its_methods(tmp_path):
    src = _synthetic_src(tmp_path)
    path = src / "repro" / "testing" / "goldens.py"
    path.write_text(path.read_text() + "\n\nclass Holder:\n    def only_tested(self):\n        pass\n")
    assert unused_methods(tmp_path) == []
