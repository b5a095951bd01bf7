"""Concurrent, resumable execution of expanded scenario grids.

:class:`SweepRunner` takes a list of :class:`ScenarioSpec` cells (usually
from :func:`~repro.scenarios.grid.expand_grid`), runs each cell's full
experiment, and returns a :class:`~repro.scenarios.report.SweepReport`.
:func:`run_grid` is the one-call form — expand, run, report — and the only
multi-run entry point: an algorithm comparison, a γ sweep, a mode race and
an edge-width sweep are all one-axis grids.

Concurrency is *across cells*: whole experiments fan out over a pool named
after the exec-backend vocabulary — ``"serial"`` (in-order, the reference)
or ``"process"`` (forked workers — true parallelism; cells should then use
``backend="serial"`` internally so pools don't nest; the runner enforces
this, see below). Like the process backend, the process executor needs the
``fork`` start method; without it, a runner that would fork refuses to be
built. Per-cell results are a pure function of the cell's config seed, so
the report is bit-identical at any ``parallel`` on any executor (wall-clock
``train_seconds``/``compress_seconds`` excepted, as everywhere).

**Persistent workers + cross-cell caching.** Grid cells overwhelmingly
share their dataset world — same raw arrays, same splits, same partition,
same population columns — and differ only in training knobs. Every
:func:`run_cell` therefore resolves its cell's dataset-relevant config
slice against a process-local :class:`~repro.fl.context.WorldCache` and
passes the cached :class:`~repro.fl.context.SimulationContext` into
:func:`~repro.fl.simulation.run_experiment`, so the expensive construction
happens once per distinct world, not once per cell. The cache lives at
module level, which makes it per-*worker* on the process executor — and the
runner keeps its pool **persistent** (reused across :meth:`SweepRunner.run`
calls until :meth:`SweepRunner.close`, or scope it with ``with``), so
worker caches keep paying off across repeated/resumed sweeps.

Guard rail: when the sweep executor is ``"process"``, a cell that itself
requests ``backend="process"`` would fork a pool inside a pool. The runner
tells workers to force such cells to ``backend="serial"`` (warning once per
worker); by the determinism contract the history is identical either way.

With a :class:`~repro.scenarios.store.RunStore`, finished cells persist as
they complete and an interrupted sweep resumes by re-running only the
missing ones.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.fl.context import WorldCache
from repro.fl.history import History
from repro.fl.simulation import run_experiment
from repro.io.history_io import history_from_dict, history_to_dict
from repro.obs import NULL_OBS
from repro.obs.tracer import trace_clock
from repro.scenarios.grid import expand_grid
from repro.scenarios.report import SweepReport
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import RunStore

__all__ = ["SweepRunner", "SWEEP_EXECUTORS", "run_cell", "run_grid", "WORLD_CACHE"]

#: How cells fan out; mirrors the exec-backend vocabulary.
SWEEP_EXECUTORS = ("serial", "process")

#: Process-local dataset/world cache shared by every cell this process (or
#: forked sweep worker) runs. Keyed purely on the dataset-relevant config
#: slice — see :data:`repro.fl.context.DATASET_KEY_FIELDS`.
WORLD_CACHE = WorldCache()

#: Set once a worker has warned about forcing a nested-process cell serial,
#: so a 1000-cell grid produces one warning per worker, not per cell.
_warned_forced_serial = False


def run_cell(
    spec_dict: dict,
    *,
    use_cache: bool = True,
    force_serial_backend: bool = False,
) -> dict:
    """Run one cell (spec as dict in, history as dict out).

    Module-level and dict-typed so it crosses a process pool by reference +
    pickle; also the serial path, so every executor shares one code path.

    ``use_cache`` resolves the cell's world through the process-local
    :data:`WORLD_CACHE` (bit-identical to a cold build — the cache only
    skips reconstruction of seeded-deterministic arrays).
    ``force_serial_backend`` is the nested-pool guard rail: a cell
    requesting ``backend="process"`` is run with ``backend="serial"``
    instead (identical history by the determinism contract; the spec — and
    therefore any :class:`~repro.scenarios.store.RunStore` key — is not
    rewritten).
    """
    global _warned_forced_serial
    spec = ScenarioSpec.from_dict(spec_dict)
    config = spec.to_config()
    if force_serial_backend and config.backend == "process":
        if not _warned_forced_serial:
            _warned_forced_serial = True
            warnings.warn(
                "cell requests backend='process' inside a process-pool "
                "sweep; nested worker pools oversubscribe the CPU — forcing "
                "backend='serial' for this worker's cells (histories are "
                "bit-identical by the determinism contract)",
                stacklevel=2,
            )
        config = dataclasses.replace(config, backend="serial")
    context = WORLD_CACHE.get(config) if use_cache else None
    return history_to_dict(run_experiment(config, context=context))


class SweepRunner:
    """Execute scenario cells concurrently with optional resume.

    Parameters
    ----------
    specs:
        The cells to run. Order is preserved in the report regardless of
        completion order.
    parallel:
        Max cells in flight at once (1 = sequential).
    executor:
        ``"serial"`` | ``"process"``; default picks ``"process"`` when
        ``parallel > 1`` and ``"serial"`` otherwise. ``"process"`` at
        ``parallel > 1`` needs the ``fork`` start method (``ValueError``
        without it).
    store:
        Optional :class:`RunStore` (or path) for resume: completed cells
        are loaded instead of re-run, fresh cells are persisted as they
        finish — an interrupt loses only in-flight cells; a cell that raises
        fails the sweep (``RuntimeError`` naming it) once its siblings are saved.
    progress:
        Optional callback ``(spec, cached: bool)`` invoked as each cell
        resolves (in completion order, not cell order).
    on_start:
        Optional callback ``(spec)`` invoked when a cell is dispatched
        (submitted to the pool, or about to run on the serial path) —
        together with ``progress`` this drives live displays like
        :class:`repro.obs.SweepProgress`.
    obs:
        Optional :class:`repro.obs.Obs` bundle: each cell's dispatch→
        resolution lifetime is recorded as a ``sweep.cell`` span, with
        done/cached counters and a cell-seconds histogram.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        parallel: int = 1,
        executor: str | None = None,
        store: RunStore | str | None = None,
        progress: Callable[[ScenarioSpec, bool], None] | None = None,
        on_start: Callable[[ScenarioSpec], None] | None = None,
        obs=None,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        if executor is None:
            executor = "process" if parallel > 1 else "serial"
        if executor not in SWEEP_EXECUTORS:
            raise ValueError(
                f"executor must be one of {SWEEP_EXECUTORS}, got {executor!r}"
            )
        if executor == "process" and parallel > 1 and "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "executor='process' needs the 'fork' start method, which this "
                "platform lacks; use executor='serial' (or parallel=1)"
            )
        self.specs = list(specs)
        # Cross-field config errors surface here, before any cell runs.
        configs = [s.to_config() for s in self.specs]
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate cell names in sweep: {dupes}")
        self.parallel = int(parallel)
        self.executor = executor
        if store is not None and not isinstance(store, RunStore):
            store = RunStore(store)  # accept a plain directory path
        self.store = store
        self.progress = progress
        self.on_start = on_start
        self.obs = obs if obs is not None else NULL_OBS
        self._pool: ProcessPoolExecutor | None = None
        self._entered = False
        if self.executor == "process" and self.parallel > 1:
            if any(c.backend == "process" for c in configs):
                warnings.warn(
                    "sweep cells use backend='process' inside a process-pool "
                    "sweep; nested worker pools oversubscribe the CPU — "
                    "they are forced serial in the workers; prefer "
                    "backend='serial' cells with sweep-level parallelism",
                    stacklevel=2,
                )

    # ----------------------------------------------------------------- pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The runner's persistent executor pool (created on first use).

        Kept alive across :meth:`run` calls so forked workers — and with
        them the per-worker :data:`WORLD_CACHE` — survive from one sweep to
        the next. Released by :meth:`close` (or leaving a ``with`` block).
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.parallel, mp_context=mp.get_context("fork")
            )
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> SweepRunner:
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        self._entered = False
        self.close()

    def run(self) -> SweepReport:
        """Run every cell (skipping completed store entries); build the report.

        Histories pass through the dict round-trip on every path (worker
        pickle, store JSON, serial), so a cell's record values have one
        provenance no matter how it executed.
        """
        obs = self.obs
        cached: dict[int, History] = {}
        pending: list[int] = []
        for i, spec in enumerate(self.specs):
            hist = self.store.load(spec) if self.store is not None else None
            if hist is not None:
                cached[i] = hist
                obs.metrics.counter("sweep_cells", outcome="cached").inc()
                if self.progress is not None:
                    self.progress(spec, True)
            else:
                pending.append(i)

        results: dict[int, History] = dict(cached)
        # Per-cell dispatch instants: the span runs submission → resolution
        # (on the parallel path that includes queueing; on the serial path
        # it is the cell's own wall clock).
        starts: dict[int, float] = {}

        def dispatch(i: int) -> None:
            if obs.enabled:
                starts[i] = trace_clock()
            if self.on_start is not None:
                self.on_start(self.specs[i])

        def resolve(i: int, history_dict: dict) -> None:
            history = history_from_dict(history_dict)
            results[i] = history
            if obs.enabled:
                t0 = starts.pop(i, None)
                if t0 is not None:
                    t1 = trace_clock()
                    obs.tracer.add_span(
                        "sweep.cell", t0, t1, cat="sweep", cell=self.specs[i].name
                    )
                    obs.metrics.histogram("sweep_cell_seconds").observe(t1 - t0)
                obs.metrics.counter("sweep_cells", outcome="done").inc()
            if self.store is not None:
                self.store.save(self.specs[i], history)
            if self.progress is not None:
                self.progress(self.specs[i], False)

        failed: tuple[int, BaseException] | None = None  # first cell that raised
        if not pending:
            pass
        elif self.parallel == 1 or self.executor == "serial" or len(pending) == 1:
            for i in pending:
                dispatch(i)
                try:
                    payload = run_cell(self.specs[i].to_dict())
                except Exception as exc:
                    failed = (i, exc)
                    break
                resolve(i, payload)
        else:
            try:
                pool = self._ensure_pool()
                # Bounded submission window: keep at most ``parallel``
                # futures alive so a 10k-cell grid doesn't pickle everything
                # up front, and persist each cell the moment it lands.
                todo = list(pending)
                futures = {}
                while todo or futures:
                    while todo and len(futures) < self.parallel:
                        i = todo.pop(0)
                        dispatch(i)
                        futures[
                            pool.submit(
                                run_cell,
                                self.specs[i].to_dict(),
                                force_serial_backend=True,
                            )
                        ] = i
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i, exc = futures.pop(fut), fut.exception()
                        if exc is None:
                            resolve(i, fut.result())
                        elif failed is None:
                            # Submit nothing more; cells in flight still land.
                            failed, todo = (i, exc), []
            finally:
                # Outside a ``with`` block the pool is single-use, matching
                # the historical behavior; entered runners keep it warm.
                if not self._entered:
                    self.close()

        if failed is not None:
            i, exc = failed
            raise RuntimeError(f"sweep cell {self.specs[i].name!r} failed: {exc!r}") from exc
        ordered = [(self.specs[i], results[i]) for i in range(len(self.specs))]
        return SweepReport(
            cells=ordered, executed=len(pending), reused=len(cached)
        )


def run_grid(
    base,
    axes: dict,
    *,
    seeds=None,
    parallel: int = 1,
    executor: str | None = None,
    store=None,
):
    """Expand a grid over ``base`` and run it (parallel, resumable).

    Equivalent to
    ``SweepRunner(expand_grid(base, axes, seeds=seeds), ...).run()``.

    Args:
        base: An :class:`~repro.fl.config.ExperimentConfig` or
            :class:`~repro.scenarios.ScenarioSpec` supplying every field
            the axes don't vary.
        axes: Config field → list of values (cartesian product; values
            typed through the field types).
        seeds: Seed replication — an int ``k`` (base seed .. base seed
            + k − 1), an explicit sequence, or None for the base seed only.
        parallel: Max cells in flight (1 = sequential).
        executor: ``"serial"`` | ``"process"`` cell pool
            (default: process when ``parallel > 1``).
        store: Optional :class:`~repro.scenarios.RunStore` (or directory
            path) enabling resume: completed cells load instead of re-run.

    Returns:
        A :class:`~repro.scenarios.SweepReport` with the cells in
        expansion order; for a one-axis grid,
        ``report.by_axis(name)[value]`` is that cell's history.
    """
    cells = expand_grid(base, axes, seeds=seeds)
    return SweepRunner(
        cells, parallel=parallel, executor=executor, store=store
    ).run()
