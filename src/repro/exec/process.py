"""Multiprocessing backend — true parallelism for CPU-bound client training.

Design:

- **Fork-based persistent workers.** The pool forks once, on first use, so
  every worker inherits the simulation's own :class:`WorkerContext`
  (clients, compressors, its model) by copy-on-write — nothing is pickled at
  startup and the dataset is not duplicated over pipes. The client and
  compressor pools are lazy, so what is inherited is the population's
  column table, not client objects: each worker hydrates only the
  ``cid % workers`` slice of each round's cohort, and the parent process
  never hydrates at all.
- **Stable client sharding.** Client ``cid`` is always executed by worker
  ``cid % workers`` (:func:`shard_tasks`). Per-client state (batch-loader
  RNG stream, error-feedback residual) therefore lives in exactly one
  process and advances in selection order, exactly as in serial execution
  — seeded runs are bit-identical across backends.
  Changing ``workers`` mid-run would break this, so the count is fixed at
  construction.
- **Windowed rounds.** A round goes out :data:`WINDOW` positions at a time:
  one window's updates, not a cohort's, are pickled.
- **Shared read-only global parameters.** Each round the parent writes the
  global parameter vector into one POSIX shared-memory block; workers map
  it once and read a zero-copy view. Only the small task list travels over
  the pipe. If shared memory is unavailable the backend transparently falls
  back to shipping the vector in the task message.
- **One BLAS thread per worker.** The workers already split the cohort
  over the cores; each starts with the BLAS library NumPy bundles pinned to
  one thread, so no worker's BLAS pool competes with its siblings.

The backend requires the ``fork`` start method (Linux, macOS); ``spawn``
would have to rebuild client state from pickles and is deliberately not
supported — use the serial backend there.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing as mp
import warnings
import weakref
from collections.abc import Iterator, Sequence
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.exec.base import (
    ClientTask,
    ExecutionBackend,
    TaskResult,
    TrainSpec,
    WorkerContext,
    resolve_workers,
)

__all__ = ["ProcessBackend"]

#: Positions the backend dispatches at once. Windows run one after another,
#: so a client's tasks keep their list order across windows too.
WINDOW = 64

_CMD_ROUND = "round"
_CMD_ATTACH = "attach"
_CMD_STOP = "stop"

#: Thread-count setters of the BLAS builds NumPy wheels bundle, by symbol.
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def bundled_blas() -> tuple | None:
    """The thread-count setter and getter of the BLAS library NumPy bundles,
    found by symbol (:data:`BLAS_SETTERS`); None, warned once, when no
    bundled library has one."""
    numpy_dir = Path(np.__file__).parent  # wheels: numpy.libs/ (Linux), .dylibs/ (macOS)
    libs = [*numpy_dir.parent.glob("numpy.libs/*blas*"), *numpy_dir.glob(".dylibs/*blas*")]
    for path in sorted(libs):
        lib = ctypes.CDLL(str(path))
        for name in BLAS_SETTERS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                get_threads = getattr(lib, name.replace("_set_", "_get_"))
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    warnings.warn(
        f"no BLAS thread setter ({', '.join(BLAS_SETTERS)}) in NumPy's bundled libraries: "
        "process-backend workers run at the BLAS default thread count",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


def shard_tasks(tasks: Sequence[ClientTask], workers: int) -> list[list[ClientTask]]:
    """Worker ``k``'s tasks: those of every client ``cid % workers == k``,
    in list order — a client's tasks never split across workers."""
    shards: list[list[ClientTask]] = [[] for _ in range(workers)]
    for task in tasks:
        shards[task.cid % workers].append(task)
    return shards


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
    blas = bundled_blas()  # looked up by the parent before it forked
    if blas is not None:
        set_threads, _ = blas
        set_threads(1)
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
            # cmd == _CMD_ROUND. The payload says where this round's
            # globals live: the attached segment, or inline in the message.
            _, tasks, spec, payload = msg
            global_params = view if payload[0] == "shared" else payload[1]
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
    #: Set once a round failed, or was abandoned with tasks left to run.
    _poisoned = False

    def __init__(self, context: WorkerContext, workers: int | None = None):
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "the process backend requires the 'fork' start method; "
                "use backend='serial' on this platform"
            )
        self.workers = resolve_workers(workers)
        self._context = context
        self._pool: _Pool | None = None
        self._layout: tuple[tuple[int, ...], str] | None = None
        self._finalizer = None

    # ------------------------------------------------------------------ setup

    def _ensure_started(self) -> None:
        if self._pool is not None:
            return
        ctx = mp.get_context("fork")
        bundled_blas()  # once, in the parent: the workers inherit the lookup
        pool = _Pool()
        for _ in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop, args=(child_conn, self._context), daemon=True
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

    def _broadcast(self, global_params: np.ndarray) -> tuple:
        """Publish round inputs; returns the payload tag for the task message:
        ``("shared",)`` (read the shm view) or ``("inline", params)`` (shm
        unavailable)."""
        if self._ensure_shared(global_params):
            assert self._pool is not None and self._pool.shm is not None
            _np_view(self._pool.shm.buf, self._layout)[...] = global_params
            return ("shared",)
        return ("inline", global_params)

    # ------------------------------------------------------------------ round

    def run_round(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        spec: TrainSpec,
    ) -> Iterator[TaskResult]:
        if self._poisoned:
            raise RuntimeError(
                "process backend failed in a previous round, or its stream was abandoned "
                "part-way; per-client state advanced for part of that round — build a fresh simulation"
            )
        self._ensure_started()
        return self._windows(tasks, spec, self._broadcast(global_params))

    def _windows(
        self, tasks: Sequence[ClientTask], spec: TrainSpec, payload
    ) -> Iterator[TaskResult]:
        """Stream ``tasks`` :data:`WINDOW` positions at a time, each window's
        results in position order. A stream that fails or is closed before
        its last window ran poisons the backend."""
        left = len(tasks)
        try:
            for start in range(0, len(tasks), WINDOW):
                results = self._run_window(tasks[start : start + WINDOW], spec, payload)
                left -= len(results)
                yield from results
        finally:
            self._poisoned = self._poisoned or left > 0

    def _run_window(self, window: Sequence[ClientTask], spec: TrainSpec, payload) -> list[TaskResult]:
        assert self._pool is not None
        shards = shard_tasks(window, self.workers)
        active = [w for w, shard in enumerate(shards) if shard]
        # Drain every active worker before raising: an unconsumed reply would
        # be read as a later window's result. Any failure poisons the backend
        # (_windows): a partial round already advanced per-client state, and
        # a dead worker or a failure mid-protocol leaves replies that cannot
        # be drained.
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
