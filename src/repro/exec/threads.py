"""Thread-pool backend.

Worker threads share the client and compressor objects (per-client state
advances in exactly one place) but each owns a private model replica, since
``local_train`` mutates the model in place. Tasks are sharded by
:func:`~repro.exec.base.shard_tasks` (client ``cid`` on thread
``cid % workers``, as in the process backend), so two threads never touch
the same client or compressor concurrently — a client's tasks run in order
on one thread, its RNG/EF streams advance exactly as in serial execution
and seeded runs stay bit-identical, window after window of a round.

Python's GIL serializes the interpreter, so the speedup here is bounded by
how much time the numeric kernels spend outside it (NumPy releases the GIL
in large BLAS calls). For CPU-bound training prefer the process backend;
the thread backend stays useful for GIL-releasing workloads and as a
low-overhead sanity point between serial and process.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exec.base import (
    ClientTask,
    ExecutionBackend,
    TaskResult,
    TrainSpec,
    WorkerContext,
    resolve_workers,
    shard_tasks,
)

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Persistent thread pool with one model replica per worker."""

    name = "thread"

    def __init__(self, context_factory: Callable[[], WorkerContext], workers: int | None = None):
        self.workers = resolve_workers(workers)
        self._factory = context_factory
        self._contexts: dict[int, WorkerContext] = {}
        self._pool: ThreadPoolExecutor | None = None

    def _context(self, k: int) -> WorkerContext:
        """Worker ``k``'s context, built on first use — a round with fewer
        tasks than workers never pays for the unused model replicas."""
        if k not in self._contexts:
            self._contexts[k] = self._factory()
        return self._contexts[k]

    def run_round(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray | None,
        spec: TrainSpec,
    ) -> Iterator[TaskResult]:
        self._check_healthy()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )

        def run_chunk(ctx: WorkerContext, chunk: list[ClientTask]) -> list[TaskResult]:
            return [ctx.execute(t, global_params, spec) for t in chunk]

        def run_window(window: Sequence[ClientTask]) -> list[TaskResult]:
            # One shard per context/thread; each runs its clients' tasks in order.
            futures = [
                self._pool.submit(run_chunk, self._context(k), shard)
                for k, shard in enumerate(shard_tasks(window, self.workers))
                if shard
            ]
            try:
                results = [r for f in futures for r in f.result()]
            except BaseException:
                # Other chunks kept running and advanced shared per-client
                # state; a continued run could not be reproduced serially.
                for f in futures:
                    f.cancel()
                raise
            return sorted(results, key=lambda r: r.position)

        return self._windows(tasks, run_window)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._contexts = {}
