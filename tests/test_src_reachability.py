"""No ``src/repro`` code exists only for its own tests (ROADMAP needle 2).

Imports are followed, by ``ast``, from the program's real entry points:
``repro.cli``, ``repro.__main__``, ``repro.simtime`` (the module of
``make_simulation``) and every file under ``bench/``, ``benchmarks/``,
``examples/`` and ``scripts/``. Two rules hold over what that walk reaches:

1. every ``src/repro`` module is reached;
2. every ``__all__`` name is used by something the walk reaches.

What counts as a use: an import whose bound name the importing file loads,
and a load of a module's own top-level name from another of its top-level
statements. A package ``__init__``'s re-export — its import line or its
``__all__`` entry — is not a use, but code in the ``__init__`` that loads
the import is (``exec/__init__.py::make_backend`` constructing
``SerialBackend``). ``tests/`` is never walked, so what only a test
imports is unreached. ``bench/layers.py`` imports every module by walking
the package at run time; that dynamic import is deliberately not followed.
An allowlisted module is kept on purpose, so it is walked as an entry
point too: what it calls stays for as long as it does.

Each module is its own test case, so a failure names the module.
"""

from __future__ import annotations

import ast
import functools
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.simtime")
ENTRY_DIRS = ("bench", "benchmarks", "examples", "scripts")

#: Modules (with everything below them) that only tests may reach.
ALLOWED_MODULES = {
    "repro.testing": "test support by design: the golden-history harness",
    "repro.analysis": "ROADMAP item 4 wires it into per-round diagnostics or deletes it",
    "repro.io.checkpoint": "ROADMAP item 3 makes resume exact through it or deletes it",
    "repro.experiments.metrics": "ROADMAP item 2's claims table takes speedup_to_target or deletes it",
}
#: Exported names that only tests may use.
ALLOWED_NAMES = {
    ("repro.compression.base", "compression_error"): (
        "the reference metric the compressor tests measure against"
    ),
    ("repro.nn.params", "param_slices"): (
        "the flat layout repro.analysis.layerwise takes as input; goes or stays with it"
    ),
    ("repro.viz.ascii", "ascii_sweep_grid"): (
        "tests/report/golden_summaries.txt pins it as the text twin of the report's heatmap"
    ),
}


@dataclass
class _File:
    """What the walk needs from one parsed file."""

    name: str
    tree: ast.Module
    #: (module, name or None, bound name): ``from module import name`` or
    #: ``import module``, wherever in the file it appears.
    imports: list = field(default_factory=list)
    loads: set = field(default_factory=set)
    #: Dotted ``a.b.c`` attribute chains rooted at a loaded name.
    chains: list = field(default_factory=list)
    defined: set = field(default_factory=set)
    exports: list = field(default_factory=list)

    def __post_init__(self):
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.imports.append((alias.name, None, bound, alias.asname is not None))
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imports.append((node.module, alias.name, alias.asname or alias.name, True))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain:
                    self.chains.append(chain)
        for stmt in self.tree.body:
            self.defined |= _defines(stmt)
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                self.exports = [elt.value for elt in stmt.value.elts]

    def binding(self, name: str):
        """``(module, name or None)`` an import in this file binds ``name`` to."""
        for module, imported, bound, _ in self.imports:
            if bound == name:
                return module, imported
        return None


def _chain(node: ast.Attribute) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _defines(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _parse(path: Path, name: str) -> _File:
    return _File(name, ast.parse(path.read_text(), filename=str(path)))


def _src_modules(src: Path) -> dict[str, _File]:
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        modules[name] = _parse(path, name)
    return modules


def _allowed(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in ALLOWED_MODULES)


def unreached(src: Path = SRC, repo: Path = REPO) -> tuple[list[str], list[str]]:
    """``(modules nothing reaches, "module.name" exports nothing uses)``,
    allowlist entries excluded."""
    modules = _src_modules(src)
    reached: set[str] = set()
    used: set[tuple[str, str]] = set()
    queue: list[_File] = []

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

    def scan(f: _File) -> None:
        for module, name, bound, binds_target in f.imports:
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
            for chain in f.chains:
                if chain[0] != bound:
                    continue
                current = target
                for attr in chain[1:]:
                    if f"{current}.{attr}" not in modules:
                        use(current, attr)
                        break
                    current = f"{current}.{attr}"
                    reach(current)
        if f.name in modules:
            for stmt in f.tree.body:
                loads = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                for name in (loads & f.defined) - _defines(stmt):
                    used.add((f.name, name))

    for module in ENTRY_MODULES:
        reach(module)
    for module in modules:
        if _allowed(module):
            reach(module)
    for directory in ENTRY_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            scan(_parse(path, str(path)))
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
def _unreached_in_repo() -> tuple[list[str], list[str]]:
    return unreached()


_MODULES = _src_modules(SRC)
_CHECKED = sorted(m for m in _MODULES if not _allowed(m))


@pytest.mark.parametrize("module", _CHECKED)
def test_module_is_reached_from_an_entry_point(module):
    dead_modules, _ = _unreached_in_repo()
    assert module not in dead_modules, (
        f"only tests reach {module}: call it from the program or delete it"
    )


@pytest.mark.parametrize("module", [m for m in _CHECKED if _MODULES[m].exports])
def test_module_exports_are_used_outside_tests(module):
    _, dead_names = _unreached_in_repo()
    dead = [name for name in dead_names if name.rsplit(".", 1)[0] == module]
    assert dead == [], (
        f"only tests use {dead}: call them from the program, or delete them "
        "and their __all__ entries"
    )


def test_allowlist_entries_exist():
    modules = _src_modules(SRC)
    assert all(m in modules for m in ALLOWED_MODULES)
    assert all(name in modules[m].exports for m, name in ALLOWED_NAMES)


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC / "repro", src / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_an_unimported_module_fails(tmp_path):
    src = _copy_src(tmp_path)
    (src / "repro" / "fl" / "orphan.py").write_text('"""Nothing imports me."""\n')
    dead_modules, _ = unreached(src)
    assert dead_modules == ["repro.fl.orphan"]


def test_a_name_only_tests_use_fails(tmp_path):
    src = _copy_src(tmp_path)
    path = src / "repro" / "utils" / "validation.py"
    text = path.read_text().replace('__all__ = ["', '__all__ = ["only_tested", "', 1)
    path.write_text(text + "\n\ndef only_tested():\n    return None\n")
    _, dead_names = unreached(src)
    assert dead_names == ["repro.utils.validation.only_tested"]


def test_a_reexport_is_not_a_use(tmp_path):
    src = _copy_src(tmp_path)
    (src / "repro" / "utils" / "orphan.py").write_text('__all__ = ["f"]\n\n\ndef f():\n    pass\n')
    init = src / "repro" / "utils" / "__init__.py"
    init.write_text("from repro.utils.orphan import f\n" + init.read_text())
    dead_modules, _ = unreached(src)
    assert dead_modules == ["repro.utils.orphan"]
