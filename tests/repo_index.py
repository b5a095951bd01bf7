"""One parse of the repository, shared by the repository-rule tests.

``tests/test_src_reachability.py``, ``tests/test_config_reachability.py`` and
``tests/test_import_budget.py`` ask about the same files: every ``*.py``
under ``src/``, ``bench/``, ``benchmarks/``, ``examples/`` and ``scripts/``.
:func:`repo_index` parses each once a session and keeps the facts those
rules query (see :class:`File`). The rules themselves — entry points, what
counts as a use, allowlists — stay in their test files, whose negative
cases index a small synthetic repository the same way.
"""

from __future__ import annotations

import ast
import functools
import importlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.fl.config import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
#: Where the program and its entry points live; ``tests/`` is never indexed.
INDEXED_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")
#: Calls whose keywords set a config field.
SETTER_CALLS = frozenset(
    {"ExperimentConfig", "with_", "with_overrides", "paper_config", "bench_config", "replace", "dict"}
)
CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


@dataclass
class File:
    """What the rules need from one parsed file. Annotations (of an
    argument, a return or an annotated assignment) are not walked for
    ``imports``, ``loads`` and ``chains``: naming a type uses nothing."""

    rel: str  # posix path relative to the repository root
    module: str | None  # dotted module name of a file under ``src/``
    #: (module, name or None, bound name, binds the target, line) of each
    #: absolute ``from module import name`` or ``import module``.
    imports: list = field(default_factory=list)
    loads: set = field(default_factory=set)
    chains: dict = field(default_factory=dict)  # ``a.b.c`` as {"a": [["b", "c"]]}
    defined: set = field(default_factory=set)  # top-level definitions
    exports: list = field(default_factory=list)  # ``__all__``
    #: Top-level names one top-level statement uses and another defines.
    self_uses: set = field(default_factory=set)
    methods: list = field(default_factory=list)  # (class, function in its body)
    names: set = field(default_factory=set)  # every attribute name and string
    #: Config fields a setter call's keyword, a dict key or a CLI flag sets.
    setters: set = field(default_factory=set)
    #: (config field, name) pairs a selecting position names.
    selections: set = field(default_factory=set)

    def under(self, *prefixes: str) -> bool:
        """Whether the file is one of ``prefixes`` or lies below one."""
        return any(self.rel == p or self.rel.startswith(p + "/") for p in prefixes)

    def binding(self, name: str):
        """``(module, name or None)`` an import in this file binds ``name`` to."""
        for module, imported, bound, _, _ in self.imports:
            if bound == name:
                return module, imported
        return None


@dataclass
class RepoIndex:
    files: list[File]
    #: ``README.md``, ``docs/*.md`` and every file under ``.github/``.
    docs: list[str]

    @functools.cached_property
    def modules(self) -> dict[str, File]:
        return {f.module: f for f in self.files if f.module is not None}


def repo_index(root: Path = REPO) -> RepoIndex:
    """The index of the repository at ``root``, built once a session (one
    cache entry per root, whether or not the caller passes it)."""
    return _index(Path(root))


@functools.cache
def _index(root: Path) -> RepoIndex:
    files = [_parse(root, p) for top in INDEXED_DIRS for p in sorted((root / top).rglob("*.py"))]
    docs = [p for p in [root / "README.md"] if p.is_file()]
    docs += sorted((root / "docs").glob("*.md"))
    docs += sorted(p for p in (root / ".github").rglob("*") if p.is_file())
    return RepoIndex(files, [p.read_text() for p in docs])


def _parse(root: Path, path: Path) -> File:
    rel = path.relative_to(root).as_posix()
    module = None
    if rel.startswith("src/"):
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    tree = ast.parse(path.read_text(), filename=str(path))
    f = File(rel, module)
    for stmt in tree.body:
        f.defined |= _defines(stmt)
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            f.exports = [elt.value for elt in stmt.value.elts]
    consts = _module_constants(tree)

    def select(key, value):
        if key in CONFIG_FIELDS:
            f.selections.update((key, v) for v in _values(value, consts))

    # One walk: each node with the top-level statement it lies in, and
    # whether it lies in an annotation (an ``arg``'s or an ``AnnAssign``'s
    # ``annotation``, a function's ``returns``).
    stmt_names = [set() for _ in tree.body]
    todo = [(stmt, top, False) for top, stmt in enumerate(tree.body)]
    while todo:
        node, top, ann = todo.pop()
        skip = (getattr(node, "annotation", None), getattr(node, "returns", None))
        todo.extend(
            (child, top, ann or any(child is a for a in skip))
            for child in ast.iter_child_nodes(node)
        )
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                f.imports.append((alias.name, None, bound, alias.asname is not None, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                f.imports.append(
                    (node.module, alias.name, alias.asname or alias.name, True, node.lineno)
                )
        elif isinstance(node, ast.Name) and not ann:
            stmt_names[top].add(node.id)
            if isinstance(node.ctx, ast.Load):
                f.loads.add(node.id)
        elif isinstance(node, ast.Attribute) and not ann and (chain := _chain(node)):
            f.chains.setdefault(chain[0], []).append(chain[1:])

        if isinstance(node, ast.Attribute):
            f.names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            f.names.add(node.value)
        elif isinstance(node, ast.ClassDef):
            f.methods += [
                (node.name, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in SETTER_CALLS:
                f.setters |= {kw.arg for kw in node.keywords if kw.arg is not None}
            for kw in node.keywords:
                select(kw.arg, kw.value)
            if called == "add_argument" and (choices := _choices(node)):
                select(_flag_field(node), choices)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    f.setters.add(key.value)
                    select(key.value, value)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
            # A CONFIG_FLAGS entry: (flag, field, dict(choices=...)).
            flag_field, kwargs = node.elts[1], node.elts[2]
            if isinstance(flag_field, ast.Constant) and isinstance(kwargs, ast.Call) and (
                choices := _choices(kwargs)
            ):
                select(flag_field.value, choices)
        elif isinstance(node, ast.Assign):
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "CONFIG_FLAGS" in targets:
                for entry in getattr(node.value, "elts", ()):
                    flag_field = entry.elts[1] if isinstance(entry, ast.Tuple) else None
                    if isinstance(flag_field, ast.Constant) and isinstance(flag_field.value, str):
                        f.setters.add(flag_field.value)
            if "compressor_name" in targets:
                select("compressor", node.value)
    for stmt, names in zip(tree.body, stmt_names):
        f.self_uses |= (names & f.defined) - _defines(stmt)
    return f


def _chain(node: ast.Attribute) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _defines(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return {t.id for t in targets if isinstance(t, ast.Name)}


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
