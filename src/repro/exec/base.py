"""Execution-backend interfaces: how a round's client work is described.

A round of Algorithm 1 fans out into independent *client tasks* — "train
client ``i`` from the current global model and compress its update at ratio
``CR_i``" — whose only shared input, the global parameters, is read-only
for the duration of the round. That independence is what makes
the round parallelizable: every backend consumes the same
:class:`ClientTask` list and yields the same :class:`TaskResult` stream in
position order — serial one task at a time, the parallel backends
:data:`WINDOW` positions at a time, so none holds or pickles a cohort — and
the round loop in :mod:`repro.fl.simulation` folds each as it arrives.

Determinism contract: a client's stochasticity lives entirely in per-client
state — its :class:`~repro.data.loader.BatchLoader` RNG stream and its
(possibly stateful, e.g. error-feedback) compressor. Backends must route
every task for client ``i`` through the single object pair owning that
state, in selection order, so a seeded run produces bit-identical results on
every backend. The parallel backends share one rule for that,
:func:`shard_tasks`: client ``cid`` always runs on worker ``cid % workers``,
its tasks in list order — so a batch may hold one client more than once.

The "clients" and "compressors" a :class:`WorkerContext` carries are lazy
pools (:mod:`repro.population.hydration`): indexing ``clients[cid]`` hydrates
the client from the population's column table on first touch. Because each
per-client stream is a pure function of ``(seed, stream, cid)``, hydrating
inside a worker yields the same object state as hydrating in the parent —
backends need no materialization step before fan-out.

A :class:`TaskResult`'s update owns its arrays on every backend — a worker
writes into no buffer the server reuses — so a caller may hold results
(semi-sync carryover) across rounds.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressedUpdate, Compressor, DenseUpdate

__all__ = [
    "ClientTask",
    "TaskResult",
    "TrainSpec",
    "WorkerContext",
    "ExecutionBackend",
    "resolve_workers",
    "shard_tasks",
    "WINDOW",
]

#: Positions a parallel backend dispatches at once. Windows run one after
#: another, so a client's tasks keep their list order across windows too.
WINDOW = 64


@dataclass(frozen=True)
class TrainSpec:
    """Round-invariant local-training hyperparameters (Alg. 1 lines 21–27)."""

    lr: float
    epochs: int
    proximal_mu: float = 0.0
    #: Byzantine behavior (repro.robust). Carried on the spec — not the
    #: worker — so forked process workers corrupt the identical clients:
    #: membership is a pure function of ``(seed, cid)``, evaluated wherever
    #: the task runs. ``adversary=None`` (the default) touches nothing.
    adversary: str | None = None
    adversary_fraction: float = 0.0
    adversary_scale: float = 10.0
    seed: int = 0

    @classmethod
    def from_config(cls, config) -> "TrainSpec":
        """Extract the local-optimizer knobs from an ``ExperimentConfig``."""
        return cls(
            lr=config.lr,
            epochs=config.local_epochs,
            proximal_mu=config.proximal_mu,
            adversary=config.adversary,
            adversary_fraction=config.adversary_fraction,
            adversary_scale=config.adversary_scale,
            seed=config.seed,
        )


@dataclass(frozen=True)
class ClientTask:
    """One unit of round work: train one client from the round's parameters,
    compress its update.

    ``ratio`` is the scheduled compression ratio ``CR_i`` (``None`` = dense
    upload). Every task of a round starts from the same parameter vector,
    which the backend broadcasts once per round.
    """

    position: int  # index into the round's selected list (result ordering)
    cid: int  # client id — keys per-client loader/compressor state
    ratio: float | None


@dataclass
class TaskResult:
    """Everything the server needs back from one client task: the emitted
    update (compressed, or the dense delta for ``ratio=None``), the
    training loss and the task's wall-clock timings."""

    position: int
    cid: int
    update: CompressedUpdate
    mean_loss: float
    train_seconds: float  # per-task wall clock (summed into Fig. 6)
    compress_seconds: float
    #: Trace-clock instants bounding the task (``time.perf_counter`` is
    #: CLOCK_MONOTONIC on Linux, shared across forked workers, so these are
    #: directly comparable to the parent tracer's epoch). ``wall_start`` →
    #: ``wall_compress`` is the train span; ``wall_compress`` →
    #: ``wall_start + train + compress`` is the compress span.
    wall_start: float = 0.0
    wall_compress: float = 0.0
    worker_pid: int = 0  # lane id for the trace (os.getpid() in the worker)


class WorkerContext:
    """The per-worker execution state: clients, compressors, one model.

    Exactly one context must own a given client's (loader, compressor) state
    at a time — the backends arrange that. The model is a scratch instance:
    :meth:`execute` loads the task's parameters into it before
    training, so any architecturally-identical replica yields identical
    results.
    """

    def __init__(
        self,
        clients: Sequence,
        compressors: Sequence[Compressor] | None,
        model,
    ):
        self.clients = clients
        self.compressors = compressors
        self.model = model
        #: Trace lane of this context's tasks: the pid of the process that
        #: first executes one (forked workers inherit the context unused).
        self._pid: int | None = None

    def execute(
        self,
        task: ClientTask,
        global_params: np.ndarray | None,
        spec: TrainSpec,
    ) -> TaskResult:
        """Run one client task to completion (train, then compress)."""
        if global_params is None:
            raise ValueError(f"task for client {task.cid} has no parameters")
        client = self.clients[task.cid]

        wall_start = t0 = time.perf_counter()
        res = client.local_train(
            self.model,
            global_params,
            lr=spec.lr,
            epochs=spec.epochs,
            proximal_mu=spec.proximal_mu,
        )
        train_seconds = time.perf_counter() - t0

        # Byzantine delta corruption (repro.robust): after local training,
        # before compression — the compressor faithfully transmits the
        # poisoned vector. Strictly gated: spec.adversary=None (default)
        # skips even the membership draw.
        if spec.adversary is not None and spec.adversary != "label_flip":
            from repro.robust.attacks import apply_delta_attack, is_adversary

            if is_adversary(spec.seed, task.cid, spec.adversary_fraction):
                apply_delta_attack(
                    res.delta, spec.adversary, scale=spec.adversary_scale
                )

        wall_compress = t0 = time.perf_counter()
        if task.ratio is None:
            update: CompressedUpdate = DenseUpdate(
                dense_size=res.delta.shape[0], values=res.delta
            )
        else:
            if self.compressors is None:
                raise ValueError(
                    f"task for client {task.cid} requests compression at ratio "
                    f"{task.ratio} but no compressors were configured"
                )
            update = self.compressors[task.cid].compress(res.delta, float(task.ratio))
        compress_seconds = time.perf_counter() - t0
        if self._pid is None:
            self._pid = os.getpid()

        return TaskResult(
            position=task.position,
            cid=task.cid,
            update=update,
            mean_loss=res.mean_loss,
            train_seconds=train_seconds,
            compress_seconds=compress_seconds,
            wall_start=wall_start,
            wall_compress=wall_compress,
            worker_pid=self._pid,
        )


class ExecutionBackend(ABC):
    """Executes one round's client tasks; see the module determinism contract."""

    #: Registry name ("serial" | "thread" | "process").
    name: str = "abstract"
    #: Set once a round failed, or was abandoned with tasks left to run.
    _poisoned = False

    @abstractmethod
    def run_round(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray | None,
        spec: TrainSpec,
    ) -> Iterator[TaskResult]:
        """Execute ``tasks``, yielding their results in ``position`` order;
        ``global_params`` must not change until the stream is exhausted."""

    def close(self) -> None:
        """Release worker resources (idempotent). Default: nothing to do."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_healthy(self) -> None:
        if self._poisoned:
            raise RuntimeError(
                f"{self.name} backend failed in a previous round, or its stream was abandoned "
                "part-way; per-client state advanced for part of that round — build a fresh simulation"
            )

    def _windows(
        self,
        tasks: Sequence[ClientTask],
        run_window: Callable[[Sequence[ClientTask]], list[TaskResult]],
    ) -> Iterator[TaskResult]:
        """Stream ``tasks`` through ``run_window`` (one window's results in
        position order) :data:`WINDOW` positions at a time. A stream that
        fails or is closed before its last window ran poisons the backend."""
        left = len(tasks)
        try:
            for start in range(0, len(tasks), WINDOW):
                results = run_window(tasks[start : start + WINDOW])
                left -= len(results)
                yield from results
        finally:
            self._poisoned = self._poisoned or left > 0


def resolve_workers(workers: int | None) -> int:
    """Worker count: explicit value, else ``min(cpu_count, 8)``."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return max(1, min(os.cpu_count() or 1, 8))


def shard_tasks(tasks: Sequence[ClientTask], workers: int) -> list[list[ClientTask]]:
    """Worker ``k``'s tasks: those of every client ``cid % workers == k``,
    in list order — a client's tasks never split across workers."""
    shards: list[list[ClientTask]] = [[] for _ in range(workers)]
    for task in tasks:
        shards[task.cid % workers].append(task)
    return shards
