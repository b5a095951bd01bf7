"""Thread-pool backend.

Worker threads share the client and compressor objects (per-client state
advances in exactly one place) but each owns a private model replica, since
``local_train`` mutates the model in place. A client appears in at most one
task per round, so two threads never touch the same client or compressor
concurrently — the per-client RNG/EF streams advance exactly as in serial
execution and seeded runs stay bit-identical.

Python's GIL serializes the interpreter, so the speedup here is bounded by
how much time the numeric kernels spend outside it (NumPy releases the GIL
in large BLAS calls). For CPU-bound training prefer the process backend;
the thread backend stays useful for GIL-releasing workloads and as a
low-overhead sanity point between serial and process.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exec.base import (
    ClientTask,
    ExecutionBackend,
    TaskResult,
    TrainSpec,
    WorkerContext,
    resolve_workers,
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
        self._poisoned = False

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
    ) -> list[TaskResult]:
        if self._poisoned:
            raise RuntimeError(
                "thread backend failed in a previous round; per-client state "
                "may have advanced for part of that round, so retrying would "
                "diverge — build a fresh simulation"
            )
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )

        def run_chunk(ctx: WorkerContext, chunk: list[ClientTask]) -> list[TaskResult]:
            return [ctx.execute(t, global_params, spec) for t in chunk]

        # Round-robin task chunks; each chunk runs on one context/thread.
        futures = [
            self._pool.submit(run_chunk, self._context(k), list(tasks[k :: self.workers]))
            for k in range(self.workers)
            if tasks[k :: self.workers]
        ]
        try:
            results = [r for f in futures for r in f.result()]
        except BaseException:
            # Other chunks kept running and advanced shared per-client
            # state; a continued run could not be reproduced serially.
            for f in futures:
                f.cancel()
            self._poisoned = True
            raise
        results.sort(key=lambda r: r.position)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._contexts = {}
