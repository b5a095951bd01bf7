"""Execution backends: lifecycle, plumbing, and what a windowed round keeps.

That a seeded run is bit-identical on every backend and worker count is
checked for drawn configs by the invariance harness, ``tests/test_invariance.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.core.overlap import narrow_overlap_counts
from repro.data.datasets import DATASET_SPECS
from repro.exec import (
    BACKENDS,
    ClientTask,
    SerialBackend,
    TrainSpec,
    WorkerContext,
    make_backend,
    resolve_workers,
)
from repro.exec import process as exec_process
from repro.exec.process import ProcessBackend
from repro.fl.simulation import Simulation
from repro.simtime import make_simulation
from tests.test_invariance import assert_same_trace, small_config, trace

#: Every registered backend but the serial reference.
PARALLEL = [b for b in BACKENDS if b != "serial"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_held_round_updates_survive_later_rounds(self, backend):
        """An update owns its arrays: results a caller kept from one
        ``run_round`` read the same three rounds later, whichever backend
        produced them."""
        with Simulation(small_config(rounds=4, backend=backend, workers=2)) as sim:
            tasks = [ClientTask(position=pos, cid=cid, ratio=0.1) for pos, cid in enumerate(range(4))]
            held = [r.update for r in sim.backend.run_round(tasks, sim.global_params, sim._train_spec)]
            snapshot = [(u.indices.copy(), u.values.copy()) for u in held]
            sim.run(3)
        assert len(held) == 4
        for update, (indices, values) in zip(held, snapshot):
            assert update.indices.tobytes() == indices.tobytes()
            assert update.values.tobytes() == values.tobytes()


class TestWindowedRounds:
    """The process backend dispatches a round ``WINDOW`` positions at a time."""

    @pytest.mark.parametrize(
        "mode, extra",
        [("sync", dict(num_clients=12)), ("hier", dict(num_clients=20, num_edges=2))],
    )
    def test_backends_agree_beyond_one_window(self, monkeypatch, mode, extra):
        monkeypatch.setattr(exec_process, "WINDOW", 2)
        cfg = small_config(mode=mode, rounds=2, **extra)
        want = trace(make_simulation(cfg))
        # Every aggregation spans at least three windows.
        for r in want["history"]["records"]:
            cohorts = [len(e["selected"]) for e in r["edge_breakdown"] or ()] or [len(r["selected"])]
            assert min(cohorts) >= 5
        for backend in PARALLEL:
            got = trace(make_simulation(cfg.with_(backend=backend, workers=2)))
            assert_same_trace(want, got, f"{backend} backend, two-position windows")

    @pytest.mark.parametrize("backend", PARALLEL)
    def test_an_abandoned_stream_poisons_the_backend(self, monkeypatch, backend):
        """Closing a round's stream with windows still to run leaves that
        round's per-client state part-advanced, exactly like a failed round."""
        monkeypatch.setattr(exec_process, "WINDOW", 2)
        tasks = [ClientTask(position=pos, cid=cid, ratio=0.1) for pos, cid in enumerate(range(5))]
        with Simulation(small_config(backend=backend, workers=2)) as sim:
            whole = list(sim.backend.run_round(tasks, sim.global_params, sim._train_spec))
            assert [r.position for r in whole] == list(range(5))
            stream = sim.backend.run_round(tasks, sim.global_params, sim._train_spec)
            next(stream)
            stream.close()
            with pytest.raises(RuntimeError, match="previous round"):
                sim.backend.run_round(tasks, sim.global_params, sim._train_spec)


class TestBackendPlumbing:
    def test_make_backend_rejects_unknown_name(self):
        ctx = WorkerContext([], None, model=None)
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("gpu", context=ctx)

    def test_config_validates_backend_and_workers(self):
        with pytest.raises(ValueError, match="backend"):
            small_config(backend="bogus")
        with pytest.raises(ValueError, match="workers"):
            small_config(workers=0)
        assert small_config(backend="process", workers=2).backend == "process"

    def test_the_retired_thread_backend_is_refused(self):
        with pytest.raises(ValueError, match="backend"):
            small_config(backend="thread")

    def test_process_backend_without_fork_names_the_serial_fallback(self, monkeypatch):
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])
        ctx = WorkerContext([], None, model=None)
        with pytest.raises(RuntimeError, match="fork") as info:
            make_backend("process", context=ctx)
        assert "backend='serial'" in str(info.value)
        assert "thread" not in str(info.value)

    def test_backend_class_names_match_registry(self):
        assert set(BACKENDS) == {
            SerialBackend.name,
            ProcessBackend.name,
        }

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_close_is_idempotent_and_permanent(self):
        sim = Simulation(small_config(backend="process", workers=2))
        assert sim._backend is None  # created lazily
        sim.run_round()
        assert sim._backend is not None
        sim.close()
        sim.close()  # idempotent
        # Reuse after close would re-fork from stale parent-side client
        # state and silently diverge from serial — it must raise instead.
        with pytest.raises(RuntimeError, match="closed"):
            sim.run_round()

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async", "hier"])
    def test_every_protocol_closes_for_good_on_exit(self, mode):
        """Every protocol is a ``Simulation`` and inherits its engine
        lifecycle: leaving the ``with`` block retires the backend."""
        with make_simulation(small_config(mode=mode, algorithm="topk")) as sim:
            sim.run_round()
            assert sim.backend is sim.backend  # built once, then reused
        sim.close()  # idempotent after __exit__
        with pytest.raises(RuntimeError, match="closed"):
            sim.backend

    @pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
    def test_replica_model_has_the_simulation_models_geometry(self, dataset):
        """The model every backend trains — the simulation's own, forked into
        process workers — is sized by the config's dataset geometry."""
        with Simulation(small_config(dataset=dataset)) as sim:
            x = sim.test_set.x[:4]
            assert sim.model(x, training=False).shape == (4, DATASET_SPECS[dataset].num_classes)
            assert sim.model.data.shape == sim.global_params.shape

    def test_train_spec_carries_the_local_knobs_of_the_config(self):
        cfg = small_config(
            lr=0.05, local_epochs=3, proximal_mu=0.01, adversary="sign_flip",
            adversary_fraction=0.2, adversary_scale=4.0, seed=11,
        )
        assert TrainSpec.from_config(cfg) == TrainSpec(
            lr=0.05, epochs=3, proximal_mu=0.01, adversary="sign_flip",
            adversary_fraction=0.2, adversary_scale=4.0, seed=11,
        )

    def test_compression_without_compressors_is_refused(self):
        with Simulation(small_config(algorithm="fedavg", compression_ratio=1.0)) as sim:
            ctx = WorkerContext(sim.clients, None, sim.model)
            dense = ctx.execute(
                ClientTask(position=0, cid=1, ratio=None), sim.global_params, sim._train_spec
            )
            assert isinstance(dense.update, DenseUpdate)
            with pytest.raises(ValueError, match="no compressors were configured"):
                ctx.execute(
                    ClientTask(position=0, cid=1, ratio=0.1), sim.global_params, sim._train_spec
                )

    def test_worker_pid_is_stamped_where_the_task_ran(self):
        """The context stamps its pid on first use: forked workers inherit
        it unstamped, so each reports its own pid, not the parent's."""
        tasks = [ClientTask(position=pos, cid=cid, ratio=0.1) for pos, cid in enumerate(range(4))]
        with Simulation(small_config(backend="process", workers=2)) as sim:
            rounds = [
                list(sim.backend.run_round(tasks, sim.global_params, sim._train_spec))
                for _ in range(2)
            ]
            workers = {proc.pid for proc in sim.backend._pool.procs}
            assert os.getpid() not in workers
            assert {r.worker_pid for r in rounds[0]} == workers
            assert [r.worker_pid for r in rounds[0]] == [r.worker_pid for r in rounds[1]]
        with Simulation(small_config()) as sim:
            results = list(sim.backend.run_round(tasks, sim.global_params, sim._train_spec))
            assert {r.worker_pid for r in results} == {os.getpid()}

    def test_worker_error_propagates(self):
        cfg = small_config(algorithm="fedavg", compression_ratio=1.0, backend="process", workers=2)
        sim = Simulation(cfg)
        try:
            backend = sim.backend
            bad = [ClientTask(position=0, cid=0, ratio=0.1)]  # no compressors to compress with
            spec = TrainSpec(lr=0.1, epochs=1)
            with pytest.raises(RuntimeError, match="worker 0 failed:\n.*no compressors were configured"):
                list(backend.run_round(bad, sim.global_params, spec))
            # A failed round may have advanced state on healthy workers;
            # the backend refuses further rounds instead of diverging.
            with pytest.raises(RuntimeError, match="previous round"):
                backend.run_round(bad, sim.global_params, spec)
        finally:
            sim.close()


class TestOverlapCountsValidation:
    def test_mismatched_dense_size_raises_cleanly(self):
        a = SparseUpdate(
            dense_size=8,
            indices=np.array([0, 3], dtype=np.int64),
            values=np.ones(2, dtype=np.float32),
        )
        b = SparseUpdate(
            dense_size=9,
            indices=np.array([1, 2], dtype=np.int64),
            values=np.ones(2, dtype=np.float32),
        )
        with pytest.raises(ValueError, match="dense_size mismatch: 9 != 8"):
            narrow_overlap_counts([a, b])
