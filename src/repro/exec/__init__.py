"""Pluggable parallel execution engine for the round loop.

One round of federated training decomposes into independent client tasks;
this package provides interchangeable backends that execute them:

========== ============================================================
backend    behaviour
========== ============================================================
"serial"   in-process, in-order — the reference; zero overhead
"thread"   thread pool, per-thread model replicas (GIL-bound for pure
           Python; wins when kernels release the GIL)
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

from collections.abc import Callable

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
BACKENDS = ("serial", "thread", "process")


def make_backend(
    name: str,
    *,
    context: WorkerContext,
    context_factory: Callable[[], WorkerContext],
    workers: int | None = None,
) -> ExecutionBackend:
    """Build an execution backend by registry name.

    ``context`` is the caller's own context (used by the serial backend so
    its behaviour is exactly the pre-backend code path); ``context_factory``
    builds contexts with fresh model replicas for the parallel backends.
    """
    if name == "serial":
        return SerialBackend(context)
    if name == "thread":
        from repro.exec.threads import ThreadBackend

        return ThreadBackend(context_factory, workers)
    if name == "process":
        from repro.exec.process import ProcessBackend

        return ProcessBackend(context_factory, workers)
    raise ValueError(f"unknown execution backend {name!r}; expected one of {BACKENDS}")
