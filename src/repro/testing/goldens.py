"""The golden-history harness: freeze a seeded run, replay it bit-for-bit.

A *golden* is the deterministic trace of one seeded config — the full
:func:`~repro.io.history_io.history_to_dict` payload with the two
wall-clock fields zeroed, plus the virtual-time span log — stored as JSON.
:func:`run_trace` captures it (:func:`sim_trace` from a built simulation),
:func:`check_golden` compares a fresh capture against the stored artifact
and fails on the first diverging record, so any change to sampling,
training, compression, aggregation, fault injection, or virtual-time
pricing shows up as a readable diff.

Regeneration is explicit: running the suite with ``REGEN_GOLDEN=1`` (or
``scripts/regen_goldens.py``, which sets it) rewrites the goldens instead
of comparing. Suites pinning *frozen* artifacts that can never be rebuilt
from the current tree — e.g. the pre-refactor population traces — pass
``regen=False`` to opt out of the environment switch.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.io.history_io import history_to_dict
from repro.simtime import make_simulation

__all__ = [
    "REGEN_ENV",
    "check_golden",
    "load_golden",
    "regen_requested",
    "run_trace",
    "sim_trace",
    "write_golden",
]

#: Environment variable that switches :func:`check_golden` from comparing
#: to rewriting.
REGEN_ENV = "REGEN_GOLDEN"


def regen_requested() -> bool:
    """Whether this run should rewrite goldens instead of comparing."""
    return bool(os.environ.get(REGEN_ENV))


def sim_trace(sim) -> dict:
    """Run ``sim`` to the end, close it, and capture its deterministic trace
    (golden format)."""
    with sim:
        history = sim.run()
    payload = history_to_dict(history)
    for rec in payload["records"]:
        # Wall-clock fields are nondeterministic by nature; goldens store
        # zeros so traces stay bitwise-comparable.
        rec["train_seconds"] = rec["compress_seconds"] = 0.0
    spans = [[s.cid, s.kind, s.start, s.end, s.tag] for s in sim.spans]
    return {"history": payload, "spans": spans}


def run_trace(config) -> dict:
    """Run ``config`` and capture its deterministic trace (:func:`sim_trace`).

    The config is run as given — callers pin ``backend`` (and anything
    else execution-related) themselves, since the whole point is replaying
    the same trace from different execution strategies.
    """
    return sim_trace(make_simulation(config))


def load_golden(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def write_golden(path: str | Path, trace: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))


def check_golden(
    path: str | Path,
    trace: dict,
    *,
    name: str | None = None,
    regen: bool | None = None,
) -> None:
    """Assert ``trace`` matches the golden at ``path`` bit-for-bit.

    With ``regen=None`` (the default) the ``REGEN_GOLDEN`` environment
    variable decides whether to rewrite instead of compare; ``regen=False``
    pins a frozen artifact that must never be rebuilt from this tree.
    """
    path = Path(path)
    label = name if name is not None else path.stem
    if regen if regen is not None else regen_requested():
        write_golden(path, trace)
        return
    if not path.exists():
        raise AssertionError(
            f"golden {label!r} missing at {path} — run with {REGEN_ENV}=1 "
            "(or scripts/regen_goldens.py) to create it"
        )
    golden = load_golden(path)
    # Record-level compare first for a readable diff, then the whole trace.
    assert trace["history"]["records"] == golden["history"]["records"], (
        f"run diverged from golden {label!r}"
    )
    assert trace == golden, f"run diverged from golden {label!r}"
