"""Backend equivalence: seeded runs are bit-identical on every backend."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compression.base import DenseUpdate, SparseUpdate
from repro.core.overlap import overlap_counts
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
from repro.exec import base as exec_base
from repro.exec.process import ProcessBackend
from repro.exec.threads import ThreadBackend
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.simtime import make_simulation


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=240,
        num_test=120,
        num_clients=6,
        participation=0.5,
        rounds=3,
        batch_size=32,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_history(config: ExperimentConfig):
    with Simulation(config) as sim:
        return sim.run()


def assert_histories_identical(a, b) -> None:
    """Field-by-field equality of the deterministic record fields.

    ``train_seconds``/``compress_seconds`` are wall clock and excluded.
    """
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        assert ra.round_index == rb.round_index
        assert ra.selected == rb.selected
        assert ra.train_loss == rb.train_loss
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.times == rb.times
        assert ra.ratios == rb.ratios
        assert ra.weights == rb.weights
        assert ra.singleton_fraction == rb.singleton_fraction


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bcrs_opwa_matches_serial(self, backend):
        serial = run_history(small_config())
        other = run_history(small_config(backend=backend, workers=2))
        assert_histories_identical(serial, other)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stateful_ef_compressor_matches_serial(self, backend):
        """Error feedback keeps per-client residual state across rounds."""
        serial = run_history(small_config(algorithm="eftopk", rounds=4, seed=5))
        other = run_history(
            small_config(algorithm="eftopk", rounds=4, seed=5, backend=backend, workers=2)
        )
        assert_histories_identical(serial, other)

    def test_dense_fedavg_matches_serial(self):
        serial = run_history(small_config(algorithm="fedavg", compression_ratio=1.0))
        proc = run_history(
            small_config(
                algorithm="fedavg", compression_ratio=1.0, backend="process", workers=3
            )
        )
        assert_histories_identical(serial, proc)

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
    """Parallel backends dispatch a round ``WINDOW`` positions at a time."""

    @pytest.mark.parametrize(
        "mode, extra",
        [("sync", dict(num_clients=12)), ("hier", dict(num_clients=20, num_edges=2))],
    )
    def test_backends_agree_beyond_one_window(self, monkeypatch, mode, extra):
        monkeypatch.setattr(exec_base, "WINDOW", 2)
        cfg = small_config(mode=mode, rounds=2, **extra)
        histories = {}
        for backend in BACKENDS:
            with make_simulation(cfg.with_(backend=backend, workers=2)) as sim:
                histories[backend] = sim.run()
        # Every aggregation spans at least three windows.
        for r in histories["serial"].records:
            cohorts = [len(e.selected) for e in r.edge_breakdown or ()] or [len(r.selected)]
            assert min(cohorts) >= 5
        for backend in ("thread", "process"):
            assert_histories_identical(histories["serial"], histories[backend])
            for a, b in zip(histories["serial"].records, histories[backend].records):
                assert (a.sim_start, a.sim_end, a.comm) == (b.sim_start, b.sim_end, b.comm)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_an_abandoned_stream_poisons_the_backend(self, monkeypatch, backend):
        """Closing a round's stream with windows still to run leaves that
        round's per-client state part-advanced, exactly like a failed round."""
        monkeypatch.setattr(exec_base, "WINDOW", 2)
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
            make_backend("gpu", context=ctx, context_factory=lambda: ctx)

    def test_config_validates_backend_and_workers(self):
        with pytest.raises(ValueError, match="backend"):
            small_config(backend="bogus")
        with pytest.raises(ValueError, match="workers"):
            small_config(workers=0)
        assert small_config(backend="thread", workers=2).backend == "thread"

    def test_backend_class_names_match_registry(self):
        assert set(BACKENDS) == {
            SerialBackend.name,
            ThreadBackend.name,
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
        """A parallel worker's replica is built from the config's dataset
        geometry, so it trains the same architecture as the parent."""
        with Simulation(small_config(dataset=dataset)) as sim:
            replica = sim._replica_model()
            assert replica is not sim.model
            x = sim.test_set.x[:4]
            assert replica(x, training=False).shape == (4, DATASET_SPECS[dataset].num_classes)
            assert sim.model(x, training=False).shape == (4, DATASET_SPECS[dataset].num_classes)
            assert replica.flat()[0].shape == sim.model.flat()[0].shape

    def test_train_spec_carries_the_local_knobs_of_the_config(self):
        cfg = small_config(
            lr=0.05, local_epochs=3, proximal_mu=0.01, adversary="sign_flip",
            adversary_fraction=0.2, adversary_scale=4.0, seed=11,
        )
        assert TrainSpec.from_config(cfg) == TrainSpec(
            lr=0.05, epochs=3, proximal_mu=0.01, adversary="sign_flip",
            adversary_fraction=0.2, adversary_scale=4.0, seed=11,
        )

    def test_a_task_without_parameters_is_refused(self):
        with Simulation(small_config()) as sim:
            ctx = WorkerContext(sim.clients, sim.compressors, sim.model)
            task = ClientTask(position=0, cid=2, ratio=0.1)
            with pytest.raises(ValueError, match="client 2 has no parameters"):
                ctx.execute(task, None, sim._train_spec)

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
        cfg = small_config(backend="process", workers=2)
        sim = Simulation(cfg)
        try:
            backend = sim.backend
            bad = [ClientTask(position=0, cid=0, ratio=None)]
            spec = TrainSpec(lr=0.1, epochs=1)
            with pytest.raises(RuntimeError, match="worker"):
                list(backend.run_round(bad, None, spec))  # no params anywhere
            # A failed round may have advanced state on healthy workers;
            # the backend refuses further rounds instead of diverging.
            with pytest.raises(RuntimeError, match="previous round"):
                backend.run_round(bad, None, spec)
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
            overlap_counts([a, b])
