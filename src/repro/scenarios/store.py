"""On-disk run store: one JSON per spec hash, written atomically.

The store is what makes sweeps *resumable*: every completed cell is
persisted under its :meth:`~repro.scenarios.spec.ScenarioSpec.spec_hash`
(a key of the resolved config, not the cell's name), so rerunning an
interrupted sweep re-executes only the cells whose files are missing.
Writes go through a temp file + ``os.replace`` so a kill mid-write never
leaves a truncated cell that would poison the resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.fl.history import History
from repro.io.history_io import history_from_dict, history_to_dict
from repro.scenarios.spec import ScenarioSpec

__all__ = ["RunStore"]


class RunStore:
    """A directory of ``<spec_hash>.json`` cells (created on first write)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, spec: ScenarioSpec) -> Path:
        """Where ``spec``'s result lives (whether or not it exists yet)."""
        return self.root / f"{spec.spec_hash()}.json"

    def _read(self, spec: ScenarioSpec) -> dict | None:
        """The cell's payload if finished and readable, else None.

        One read + parse serves both :meth:`completed` and :meth:`load`
        (cell files carry whole histories — parsing twice per resumed cell
        would double resume I/O on large grids).
        """
        path = self.path_for(spec)
        if not path.is_file():
            return None
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return None  # torn/foreign file: treat as missing, re-run
        if not isinstance(data, dict):
            return None  # foreign non-object JSON: ditto
        return data if data.get("completed") else None

    def completed(self, spec: ScenarioSpec) -> bool:
        """True iff a finished, readable result for ``spec`` is on disk."""
        return self._read(spec) is not None

    def save(self, spec: ScenarioSpec, history: History) -> Path:
        """Persist one finished cell atomically; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        payload = {
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "history": history_to_dict(history),
            "completed": True,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path

    def load(self, spec: ScenarioSpec) -> History | None:
        """The persisted history for ``spec``, or None if not completed."""
        data = self._read(spec)
        return None if data is None else history_from_dict(data["history"])

    def load_all(self) -> list[tuple[ScenarioSpec, History]]:
        """Every finished cell in the store, deterministically ordered.

        Sorted by (spec name, spec hash) — not directory order — so
        post-hoc consumers (``repro report --store``) render identically
        regardless of filesystem enumeration. Torn or foreign files are
        skipped.
        """
        out: list[tuple[ScenarioSpec, History]] = []
        if not self.root.is_dir():
            return out
        for path in self.root.glob("*.json"):
            try:
                data = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                continue
            if not isinstance(data, dict) or not data.get("completed"):
                continue
            try:
                spec = ScenarioSpec.from_dict(data["spec"])
                history = history_from_dict(data["history"])
            except (KeyError, TypeError, ValueError):
                continue
            out.append((spec, history))
        out.sort(key=lambda cell: (cell[0].name, cell[0].spec_hash()))
        return out
