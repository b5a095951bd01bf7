"""Shared execution-engine lifecycle for the simulation classes.

Both :class:`~repro.fl.simulation.Simulation` and
:class:`~repro.fl.decentralized.DecentralizedSimulation` own a lazily-created
:class:`~repro.exec.ExecutionBackend`; this mixin centralizes that lifecycle:
backend construction from the host's ``config``/``clients``/``compressors``/
``model``, replica-model building for parallel workers, and teardown.

``close()`` is **permanent**: parallel backends advance per-client state
(batch-loader RNG streams, error-feedback residuals) inside their workers,
so the parent's copies go stale the moment a round runs. Re-creating a
backend after close() would silently replay that stale state — instead any
further backend access raises, and a fresh simulation must be built.
"""

from __future__ import annotations

from repro.data.datasets import DATASET_SPECS
from repro.exec import ExecutionBackend, WorkerContext, make_backend
from repro.nn.models import build_model
from repro.obs import NULL_OBS

__all__ = ["build_config_model", "EngineMixin"]


def build_config_model(config, seed):
    """Build the config's model with the dataset's geometry unpacked.

    The single place that turns an ``ExperimentConfig`` into a model
    instance — used for the simulation's own model and for the parallel
    workers' replicas.
    """
    spec = DATASET_SPECS[config.dataset]
    return build_model(
        config.model,
        in_channels=spec.channels,
        image_size=spec.image_size,
        num_classes=spec.num_classes,
        seed=seed,
    )


class EngineMixin:
    """Lazy backend + permanent close + context-manager support.

    Hosts provide ``config`` (with ``backend``/``workers``/``dataset``/
    ``model``), ``clients``, ``compressors``, and ``model`` attributes.
    """

    _backend: ExecutionBackend | None = None
    _engine_closed: bool = False
    #: Observability bundle; hosts overwrite with a live Obs when requested.
    obs = NULL_OBS

    def _replica_model(self):
        """A fresh architecturally-identical model for a parallel worker.

        Workers fully re-initialize the model from the round's inputs before
        training, so the replica's own init seed is irrelevant.
        """
        return build_config_model(self.config, seed=0)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend (created lazily so serial runs stay free)."""
        if self._engine_closed:
            raise RuntimeError(
                "simulation was closed; per-client state advanced inside the "
                "old backend's workers, so a new backend would replay stale "
                "state — build a fresh simulation instead"
            )
        if self._backend is None:
            self._backend = make_backend(
                self.config.backend,
                context=WorkerContext(self.clients, self.compressors, self.model),
                context_factory=lambda: WorkerContext(
                    self.clients, self.compressors, self._replica_model()
                ),
                workers=self.config.workers,
            )
        return self._backend

    def _run_tasks(self, tasks, global_params, spec):
        """``backend.run_round`` plus observability: the one fan-out site.

        Wraps the round's task execution in an ``exec.round`` span and, when
        observability is live, replays each task's wall-clock instants
        (stamped inside the worker by :meth:`WorkerContext.execute`) as
        ``client.train`` / ``client.compress`` spans on the worker's pid
        lane. perf_counter is process-shared on Linux, so worker timestamps
        line up with the parent trace without any clock translation.
        """
        obs = self.obs
        if not obs.enabled:
            return self.backend.run_round(tasks, global_params, spec)
        tracer, metrics = obs.tracer, obs.metrics
        with tracer.span("exec.round", cat="exec", tasks=len(tasks)):
            results = self.backend.run_round(tasks, global_params, spec)
        train_hist = metrics.histogram("task_train_seconds")
        compress_hist = metrics.histogram("task_compress_seconds")
        for r in results:
            if r.wall_start:
                tracer.name_lane(r.worker_pid, f"worker-{r.worker_pid}")
                tracer.add_span(
                    "client.train",
                    r.wall_start,
                    r.wall_compress,
                    cat="exec",
                    tid=r.worker_pid,
                    cid=r.cid,
                )
                tracer.add_span(
                    "client.compress",
                    r.wall_compress,
                    r.wall_compress + r.compress_seconds,
                    cat="exec",
                    tid=r.worker_pid,
                    cid=r.cid,
                )
                metrics.counter("worker_busy_seconds", worker=r.worker_pid).inc(
                    r.train_seconds + r.compress_seconds
                )
            train_hist.observe(r.train_seconds)
            compress_hist.observe(r.compress_seconds)
        metrics.counter("tasks_executed").inc(len(results))
        return results

    def close(self) -> None:
        """Shut down backend workers and retire this simulation's engine.

        Idempotent; afterwards any backend access raises (see module note).
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._engine_closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
