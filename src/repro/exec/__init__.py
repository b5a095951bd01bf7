"""Pluggable parallel execution engine for the round loop.

One round of federated training decomposes into independent client tasks;
this package provides interchangeable backends that execute them:

========== ============================================================
backend    behaviour
========== ============================================================
"serial"   in-process, in-order — the reference; zero overhead
"process"  forked worker pool, shared-memory parameter broadcast —
           true parallelism for CPU-bound training
========== ============================================================

All backends preserve per-client RNG and compressor state, so a seeded run
yields bit-identical :class:`~repro.fl.history.History` records on every
backend — every field except the wall-clock ``train_seconds``/
``compress_seconds`` measurements, which are real elapsed times and
necessarily backend-dependent. Select via
``ExperimentConfig(backend=..., workers=...)`` or the CLI's
``--backend``/``--workers`` flags.
"""

from __future__ import annotations

from repro.exec.base import (
    ClientTask,
    ExecutionBackend,
    TaskResult,
    TrainSpec,
    WorkerContext,
    resolve_workers,
)
from repro.exec.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "ClientTask",
    "TaskResult",
    "TrainSpec",
    "WorkerContext",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
    "resolve_workers",
]

#: Registered backend names (also validated by ``ExperimentConfig``).
BACKENDS = ("serial", "process")


def make_backend(
    name: str,
    *,
    context: WorkerContext,
    workers: int | None = None,
) -> ExecutionBackend:
    """Build an execution backend by registry name over the caller's own
    ``context``: the serial backend executes on it, the process backend
    forks it into every worker."""
    if name == "serial":
        return SerialBackend(context)
    if name == "process":
        from repro.exec.process import ProcessBackend

        return ProcessBackend(context, workers)
    raise ValueError(f"unknown execution backend {name!r}; expected one of {BACKENDS}")
