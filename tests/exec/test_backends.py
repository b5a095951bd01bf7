"""Backend equivalence: seeded runs are bit-identical on every backend."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compression.base import SparseUpdate
from repro.core.overlap import overlap_counts
from repro.exec import (
    BACKENDS,
    ClientTask,
    SerialBackend,
    TrainSpec,
    WorkerContext,
    make_backend,
    resolve_workers,
)
from repro.exec.process import ProcessBackend
from repro.exec.threads import ThreadBackend
from repro.fl.config import ExperimentConfig
from repro.fl.decentralized import DecentralizedSimulation
from repro.fl.simulation import Simulation


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
        """An update owns its arrays: ``last_round_updates`` kept by a caller
        reads the same three rounds later, whichever backend produced it."""
        with Simulation(small_config(rounds=4, backend=backend, workers=2)) as sim:
            sim.run_round()
            held = sim.last_round_updates
            snapshot = [(u.indices.copy(), u.values.copy()) for u in held]
            sim.run(3)
        assert held and sim.last_round_updates is not held
        for update, (indices, values) in zip(held, snapshot):
            assert update.indices.tobytes() == indices.tobytes()
            assert update.values.tobytes() == values.tobytes()

    def test_decentralized_process_matches_serial(self):
        base = ExperimentConfig(
            dataset="synth-cifar10",
            model="mlp",
            num_train=160,
            num_test=80,
            num_clients=4,
            rounds=2,
            batch_size=32,
            compression_ratio=0.3,
            seed=2,
        )
        with DecentralizedSimulation(base) as a, DecentralizedSimulation(
            base.with_(backend="process", workers=2)
        ) as b:
            a.run()
            b.run()
            np.testing.assert_array_equal(a.params, b.params)
            assert [r.consensus_distance for r in a.history] == [
                r.consensus_distance for r in b.history
            ]


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

    def test_worker_pid_is_stamped_where_the_task_ran(self):
        """The context stamps its pid on first use: forked workers inherit
        it unstamped, so each reports its own pid, not the parent's."""
        tasks = [ClientTask(position=pos, cid=cid, ratio=0.1) for pos, cid in enumerate(range(4))]
        with Simulation(small_config(backend="process", workers=2)) as sim:
            rounds = [
                sim.backend.run_round(tasks, sim.global_params, sim._train_spec)
                for _ in range(2)
            ]
            workers = {proc.pid for proc in sim.backend._pool.procs}
            assert os.getpid() not in workers
            assert {r.worker_pid for r in rounds[0]} == workers
            assert [r.worker_pid for r in rounds[0]] == [r.worker_pid for r in rounds[1]]
        with Simulation(small_config()) as sim:
            results = sim.backend.run_round(tasks, sim.global_params, sim._train_spec)
            assert {r.worker_pid for r in results} == {os.getpid()}

    def test_worker_error_propagates(self):
        cfg = small_config(backend="process", workers=2)
        sim = Simulation(cfg)
        try:
            backend = sim.backend
            bad = [ClientTask(position=0, cid=0, ratio=None)]
            spec = TrainSpec(lr=0.1, epochs=1)
            with pytest.raises(RuntimeError, match="worker"):
                backend.run_round(bad, None, spec)  # no params anywhere
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
