"""Tests for persistent sweep workers, the worker world cache, and the
nested-pool guard rail (ISSUE 9 satellites b/c)."""

import json
import warnings

import pytest

from repro.fl.config import ExperimentConfig
from repro.io.history_io import history_to_dict
from repro.scenarios.grid import expand_grid
from repro.scenarios.sweep import WORLD_CACHE, SweepRunner, run_cell


def base_config(**overrides):
    kw = dict(
        dataset="synth-cifar10", model="mlp", num_train=200, num_test=100,
        num_clients=4, rounds=2, seed=3, algorithm="topk",
        compression_ratio=0.2,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def canonical(report) -> str:
    """Report as JSON with wall-clock fields stripped, order-stable."""
    cells = []
    for spec, hist in report.cells:
        d = history_to_dict(hist)
        for rec in d["records"]:
            rec.pop("train_seconds", None)
            rec.pop("compress_seconds", None)
        cells.append((spec.name, d))
    return json.dumps(cells, sort_keys=True)


def two_world_grid():
    """A grid spanning two dataset keys (two betas) × three ratios."""
    return expand_grid(
        base_config(),
        {"beta": [0.5, 0.1], "compression_ratio": [0.1, 0.2, 0.3]},
    )


class TestCachedSweepBitIdentity:
    def test_cached_matches_uncached_across_two_worlds(self):
        specs = two_world_grid()
        cold = [
            run_cell(s.to_dict(), use_cache=False) for s in specs
        ]
        warm = [run_cell(s.to_dict()) for s in specs]
        for c, w in zip(cold, warm):
            for rec in c["records"] + w["records"]:
                rec.pop("train_seconds", None)
                rec.pop("compress_seconds", None)
        assert cold == warm

    def test_worker_cache_hits_within_one_process(self):
        WORLD_CACHE.clear()
        h0, m0 = WORLD_CACHE.stats()["hits"], WORLD_CACHE.stats()["misses"]
        specs = two_world_grid()
        for s in specs:
            run_cell(s.to_dict())
        stats = WORLD_CACHE.stats()
        assert stats["misses"] - m0 == 2  # one build per dataset key
        assert stats["hits"] - h0 == len(specs) - 2

    def test_process_executor_matches_serial(self):
        specs = two_world_grid()
        ref = SweepRunner(specs, parallel=1, executor="serial").run()
        got = SweepRunner(specs, parallel=2, executor="process").run()
        assert canonical(got) == canonical(ref)


class TestPersistentPool:
    def test_pool_survives_across_runs_when_entered(self):
        specs = two_world_grid()
        with SweepRunner(specs, parallel=2, executor="process") as runner:
            first = runner.run()
            pool = runner._pool
            assert pool is not None
            second = runner.run()
            assert runner._pool is pool  # same warm pool, not a new one
        assert runner._pool is None  # closed on exit
        assert canonical(first) == canonical(second)

    def test_pool_single_use_outside_with_block(self):
        specs = two_world_grid()[:2]
        runner = SweepRunner(specs, parallel=2, executor="process")
        runner.run()
        assert runner._pool is None  # historical behavior preserved

    def test_close_idempotent(self):
        runner = SweepRunner(two_world_grid()[:2], parallel=2, executor="process")
        runner.close()
        runner.close()


class TestNestedBackendGuardRail:
    def test_process_cells_forced_serial_with_one_warning(self):
        import repro.scenarios.sweep as sweep_mod

        spec = expand_grid(
            base_config(backend="process", workers=2),
            {"compression_ratio": [0.1, 0.2]},
        )
        ref = [run_cell(s.to_dict()) for s in expand_grid(
            base_config(), {"compression_ratio": [0.1, 0.2]},
        )]
        old = sweep_mod._warned_forced_serial
        sweep_mod._warned_forced_serial = False
        try:
            with pytest.warns(UserWarning, match="nested"):
                got0 = run_cell(spec[0].to_dict(), force_serial_backend=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second cell: no re-warn
                got1 = run_cell(spec[1].to_dict(), force_serial_backend=True)
        finally:
            sweep_mod._warned_forced_serial = old
        for d in (got0, got1, *ref):
            for rec in d["records"]:
                rec.pop("train_seconds", None)
                rec.pop("compress_seconds", None)
        assert [got0, got1] == ref

    def test_non_process_cells_untouched(self):
        spec = expand_grid(base_config(), {})[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cell(spec.to_dict(), force_serial_backend=True)

    def test_runner_constructor_still_warns_on_busy_backends(self):
        specs = expand_grid(
            base_config(backend="process", workers=2),
            {"compression_ratio": [0.1, 0.2]},
        )
        with pytest.warns(UserWarning, match="nested"):
            SweepRunner(specs, parallel=2, executor="process")
