"""Multiprocessing backend — true parallelism for CPU-bound client training.

Design:

- **Fork-based persistent workers.** The pool forks once, on first use, so
  every worker inherits the full :class:`WorkerContext` (clients,
  compressors, one model replica) by copy-on-write — nothing is pickled at
  startup and the dataset is not duplicated over pipes. The client and
  compressor pools are lazy, so what is inherited is the population's
  column table, not client objects: each worker hydrates only the
  ``cid % workers`` slice of each round's cohort, and the parent process
  never hydrates at all.
- **Stable client sharding.** Client ``cid`` is always executed by worker
  ``cid % workers`` (:func:`~repro.exec.base.shard_tasks`). Per-client
  state (batch-loader RNG stream, error-feedback residual) therefore lives
  in exactly one process and advances in selection order, exactly as in
  serial execution — seeded runs are bit-identical across backends.
  Changing ``workers`` mid-run would break this, so the count is fixed at
  construction.
- **Windowed rounds.** A round goes out :data:`~repro.exec.base.WINDOW`
  positions at a time: one window's updates, not a cohort's, are pickled.
- **Shared read-only global parameters.** Each round the parent writes the
  global parameter vector into one POSIX shared-memory block; workers map
  it once and read a zero-copy view. Only the small task list travels over
  the pipe. If shared memory is unavailable the backend transparently falls
  back to shipping the vector in the task message.

The backend requires the ``fork`` start method (Linux, macOS); ``spawn``
would have to rebuild client state from pickles and is deliberately not
supported — use the thread or serial backend there.
"""

from __future__ import annotations

import multiprocessing as mp
import weakref
from collections.abc import Callable, Iterator, Sequence
from multiprocessing import shared_memory

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

__all__ = ["ProcessBackend"]

_CMD_ROUND = "round"
_CMD_ATTACH = "attach"
_CMD_STOP = "stop"


def _np_view(buf, layout: tuple[tuple[int, ...], str]) -> np.ndarray:
    """The parameter array over a shared buffer described by (shape, dtype)."""
    shape, dtype = layout
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    The parent owns the segment and unlinks it exactly once at close();
    letting each worker's tracker also claim it produces spurious
    "leaked shared_memory" warnings and double unlinks at exit. Python 3.13
    has ``SharedMemory(..., track=False)`` for this; pre-3.13 the register
    call must be suppressed around the attach.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(rname, rtype):
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _worker_loop(conn, context: WorkerContext) -> None:
    """Serve rounds until told to stop. Runs in the forked child."""
    shm = None
    view: np.ndarray | None = None
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == _CMD_STOP:
                break
            if cmd == _CMD_ATTACH:
                _, name, layout = msg
                shm = _attach_untracked(name)
                view = _np_view(shm.buf, layout)
                continue
            # cmd == _CMD_ROUND. The payload says explicitly where this
            # round's globals live — "shared" must never be inferred from a
            # previously-attached segment, or a later globals-free round
            # would silently train from the prior round's parameters.
            _, tasks, spec, payload = msg
            kind = payload[0]
            if kind == "inline":
                global_params = payload[1]
            elif kind == "shared":
                global_params = view
            else:  # "none"
                global_params = None
            try:
                results = [context.execute(t, global_params, spec) for t in tasks]
                conn.send(("ok", results))
            except Exception as exc:  # surface worker failures to the parent
                import traceback

                conn.send(("err", f"{exc}\n{traceback.format_exc()}"))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        if shm is not None:
            shm.close()
        conn.close()


class _Pool:
    """Owned process/pipe/shm state, separable from the backend for cleanup."""

    def __init__(self) -> None:
        self.procs: list = []
        self.conns: list = []
        self.shm: shared_memory.SharedMemory | None = None

    def cleanup(self) -> None:
        for conn in self.conns:
            try:
                conn.send((_CMD_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        for conn in self.conns:
            conn.close()
        self.procs, self.conns = [], []
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


class ProcessBackend(ExecutionBackend):
    """Forked worker pool with shared-memory parameter broadcast."""

    name = "process"

    def __init__(self, context_factory: Callable[[], WorkerContext], workers: int | None = None):
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "the process backend requires the 'fork' start method; "
                "use backend='thread' or 'serial' on this platform"
            )
        self.workers = resolve_workers(workers)
        self._factory = context_factory
        self._pool: _Pool | None = None
        self._layout: tuple[tuple[int, ...], str] | None = None
        self._finalizer = None

    # ------------------------------------------------------------------ setup

    def _ensure_started(self) -> None:
        if self._pool is not None:
            return
        ctx = mp.get_context("fork")
        context = self._factory()  # forked into every worker below
        pool = _Pool()
        for _ in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop, args=(child_conn, context), daemon=True
            )
            proc.start()
            child_conn.close()
            pool.procs.append(proc)
            pool.conns.append(parent_conn)
        self._pool = pool
        self._finalizer = weakref.finalize(self, _Pool.cleanup, pool)

    def _ensure_shared(self, global_params: np.ndarray) -> bool:
        """Allocate + announce the shared block; False → use inline fallback."""
        if self._layout is not None:
            return True
        assert self._pool is not None
        layout = (global_params.shape, global_params.dtype.str)
        try:
            self._pool.shm = shared_memory.SharedMemory(
                create=True, size=max(global_params.nbytes, 1)
            )
        except (OSError, ValueError):
            return False
        self._layout = layout
        for conn in self._pool.conns:
            conn.send((_CMD_ATTACH, self._pool.shm.name, layout))
        return True

    def _broadcast(self, global_params: np.ndarray | None) -> tuple:
        """Publish round inputs; returns the payload tag for the task message:
        ``("shared",)`` (read the shm view), ``("inline", params)`` (shm
        unavailable), or ``("none",)`` (this round has no globals)."""
        if global_params is None:
            return ("none",)
        if self._ensure_shared(global_params):
            assert self._pool is not None and self._pool.shm is not None
            _np_view(self._pool.shm.buf, self._layout)[...] = global_params
            return ("shared",)
        return ("inline", global_params)

    # ------------------------------------------------------------------ round

    def run_round(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray | None,
        spec: TrainSpec,
    ) -> Iterator[TaskResult]:
        self._check_healthy()
        self._ensure_started()
        payload = self._broadcast(global_params)
        return self._windows(tasks, lambda window: self._run_window(window, spec, payload))

    def _run_window(self, window: Sequence[ClientTask], spec: TrainSpec, payload) -> list[TaskResult]:
        assert self._pool is not None
        shards = shard_tasks(window, self.workers)
        active = [w for w, shard in enumerate(shards) if shard]
        # Drain every active worker before raising: an unconsumed reply would
        # be read as a later window's result. Any failure poisons the backend
        # (ExecutionBackend._windows): a partial round already advanced
        # per-client state, and a dead worker or a failure mid-protocol
        # leaves replies that cannot be drained.
        results: list[TaskResult] = []
        errors: list[tuple[int, str]] = []
        try:
            for w in active:
                self._pool.conns[w].send((_CMD_ROUND, shards[w], spec, payload))
            for w in active:
                status, reply = self._pool.conns[w].recv()
                if status == "ok":
                    results.extend(reply)
                else:
                    errors.append((w, reply))
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise RuntimeError(
                "process-backend worker died mid-round; per-client state on "
                "the surviving workers may have advanced — build a fresh "
                "simulation"
            ) from exc
        if errors:
            w, message = errors[0]
            raise RuntimeError(f"process-backend worker {w} failed:\n{message}")
        results.sort(key=lambda r: r.position)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.cleanup()
            self._pool = None
            self._layout = None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
