"""Sweep contracts: parallel determinism, resume-after-interrupt, reporting."""

from __future__ import annotations

import json

import pytest

from repro.viz.ascii import summarize_sweep
from repro.fl.config import ExperimentConfig
from repro.fl.simulation import run_experiment
from repro.io.history_io import history_to_dict
from repro.scenarios import (
    SWEEP_EXECUTORS,
    RunStore,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    get_scenario,
    run_grid,
)
from repro.viz.ascii import ascii_sweep_grid

#: Every registered sweep executor but the serial reference.
PARALLEL = [e for e in SWEEP_EXECUTORS if e != "serial"]


def tiny_base(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10", num_train=200, num_test=100, num_clients=4,
        participation=0.5, rounds=2, batch_size=32, algorithm="topk",
        compression_ratio=0.2, eval_every=1, seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_cells():
    return expand_grid(tiny_base(), {"gamma": [3.0, 5.0], "include_downlink": [False, True]})


def stored_hashes(store: RunStore) -> set[str]:
    """Spec hashes of the finished cells the store reads back."""
    return {spec.spec_hash() for spec, _ in store.load_all()}


def stripped(history) -> dict:
    """History dict minus the wall-clock fields (backend-dependent)."""
    d = history_to_dict(history)
    for rec in d["records"]:
        rec["train_seconds"] = rec["compress_seconds"] = 0.0
    return d


class TestParallelDeterminism:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_parallel_4_matches_parallel_1_bitwise(self, executor):
        """The determinism contract: same grid, any parallelism, same cells."""
        serial = SweepRunner(tiny_cells(), parallel=1).run()
        parallel = SweepRunner(tiny_cells(), parallel=4, executor=executor).run()
        assert len(serial) == len(parallel) == 4
        for (sa, ha), (sb, hb) in zip(serial.cells, parallel.cells):
            assert sa == sb  # cell order preserved
            assert stripped(ha) == stripped(hb)

    def test_duplicate_cells_refused(self):
        cells = tiny_cells()
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner(cells + cells[:1])

    def test_the_retired_thread_executor_is_refused(self):
        with pytest.raises(ValueError, match="executor"):
            SweepRunner(tiny_cells(), executor="thread")

    @pytest.mark.parametrize("executor", [None, "process"])
    def test_a_pool_without_fork_is_refused_at_construction(self, monkeypatch, executor):
        """No silent stand-in: a runner that would fork where fork is
        missing fails before any cell runs, naming ``executor``."""
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ValueError, match="executor='process'.*fork"):
            SweepRunner(tiny_cells(), parallel=2, executor=executor)
        # Nothing forks at parallel=1 or on the serial executor.
        SweepRunner(tiny_cells(), parallel=1, executor=executor)
        SweepRunner(tiny_cells(), parallel=2, executor="serial")

    def test_nested_pool_warning(self):
        cells = expand_grid(tiny_base(backend="process"), {"gamma": [3.0, 5.0]})
        with pytest.warns(UserWarning, match="nested"):
            SweepRunner(cells, parallel=2, executor="process")


class TestResume:
    def test_interrupted_sweep_reruns_only_missing_cells(self, tmp_path):
        cells = tiny_cells()
        store = RunStore(tmp_path / "runs")

        # "Interrupt": only half the grid completed before the kill.
        first = SweepRunner(cells[:2], parallel=1, store=store).run()
        assert first.executed == 2 and first.reused == 0

        seen: list[tuple[str, bool]] = []
        full = SweepRunner(
            cells, parallel=2, store=store,
            progress=lambda spec, cached: seen.append((spec.name, cached)),
        ).run()
        assert full.executed == 2 and full.reused == 2
        cached_names = {name for name, cached in seen if cached}
        assert cached_names == {c.name for c in cells[:2]}

        # A third pass is a pure cache read, bit-identical to the second.
        again = SweepRunner(cells, parallel=1, store=store).run()
        assert again.executed == 0 and again.reused == 4
        for (_, ha), (_, hb) in zip(full.cells, again.cells):
            assert stripped(ha) == stripped(hb)

    @pytest.mark.parametrize("executor", SWEEP_EXECUTORS)
    def test_failing_cell_loses_no_finished_cell(self, tmp_path, monkeypatch, executor):
        """One raising cell fails the sweep, but every cell that finished —
        on the pool path the ones in flight beside it too — is in the store
        first, and the error names the cell that raised."""
        from repro.scenarios import sweep

        cells = tiny_cells()
        bad = cells[1]
        bad_config = bad.to_config()
        real = sweep.run_experiment

        # Patched before the pool forks, so its workers run the flaky one too.
        def flaky(config, **kwargs):
            if config == bad_config:
                raise OSError("disk on fire")
            return real(config, **kwargs)

        monkeypatch.setattr(sweep, "run_experiment", flaky)
        store = RunStore(tmp_path / "runs")
        seen: list[str] = []
        with pytest.raises(RuntimeError) as err:
            SweepRunner(
                cells, parallel=4, executor=executor, store=store,
                progress=lambda spec, cached: seen.append(spec.name),
            ).run()
        assert repr(bad.name) in str(err.value)
        assert isinstance(err.value.__cause__, OSError)
        # Serial stops at the failure; the pool had all four in flight.
        finished = cells[:1] if executor == "serial" else [c for c in cells if c is not bad]
        assert stored_hashes(store) == {c.spec_hash() for c in finished}
        assert sorted(seen) == sorted(c.name for c in finished)

        monkeypatch.setattr(sweep, "run_experiment", real)
        rerun = SweepRunner(cells, parallel=1, store=store).run()
        assert rerun.reused == len(finished)
        assert rerun.executed == len(cells) - len(finished)

    def test_cached_cells_equal_fresh_cells_bitwise(self, tmp_path):
        cells = tiny_cells()[:2]
        fresh = SweepRunner(cells, parallel=1).run()
        store = RunStore(tmp_path / "runs")
        SweepRunner(cells, parallel=1, store=store).run()
        resumed = SweepRunner(cells, parallel=1, store=store).run()
        # JSON round-trips Python floats exactly, so even wall-clock fields
        # survive the store; fresh-vs-stored differs only in wall clock.
        for (_, hf), (_, hr) in zip(fresh.cells, resumed.cells):
            assert stripped(hf) == stripped(hr)

    def test_torn_store_file_is_rerun_not_crashed(self, tmp_path):
        cells = tiny_cells()[:1]
        store = RunStore(tmp_path / "runs")
        SweepRunner(cells, parallel=1, store=store).run()
        path = store.path_for(cells[0])
        path.write_text(path.read_text()[: 40])  # simulate a kill mid-write
        assert not store.completed(cells[0])
        report = SweepRunner(cells, parallel=1, store=store).run()
        assert report.executed == 1
        assert store.completed(cells[0])  # healed

    def test_foreign_json_in_store_dir_is_ignored(self, tmp_path):
        cells = tiny_cells()[:1]
        store = RunStore(tmp_path / "runs")
        SweepRunner(cells, parallel=1, store=store).run()
        (store.root / "notes.json").write_text("[]")  # non-object JSON
        store.path_for(cells[0]).write_text("[1, 2]")  # even a hash-named one
        assert not store.completed(cells[0])
        assert stored_hashes(store) == set()
        report = SweepRunner(cells, parallel=1, store=store).run()
        assert report.executed == 1  # healed, not crashed

    def test_store_file_carries_spec_and_history(self, tmp_path):
        cells = tiny_cells()[:1]
        store = RunStore(tmp_path / "runs")
        SweepRunner(cells, parallel=1, store=store).run()
        data = json.loads(store.path_for(cells[0]).read_text())
        assert data["completed"] is True
        assert data["spec"]["overrides"]["gamma"] == 3.0
        assert data["history"]["records"]
        assert stored_hashes(store) == {cells[0].spec_hash()}


class TestReport:
    def test_rankings_marginals_frontier(self):
        report = SweepRunner(tiny_cells(), parallel=1).run()
        marg = report.marginals()
        assert set(marg) == {"gamma", "include_downlink"}
        assert all(stats["n"] == 2.0 for stats in marg["gamma"].values())

        frontier = report.time_to_accuracy_frontier(0.05)
        times = [t for _, t in frontier if t is not None]
        assert times == sorted(times)

        pareto = report.pareto_frontier()
        assert pareto
        accs = [acc for *_, acc in pareto]
        assert accs == sorted(accs)  # strictly improving along the frontier

    def test_summarize_and_ascii_grid(self):
        report = SweepRunner(tiny_cells(), parallel=1).run()
        text = summarize_sweep(report, target=0.05)
        assert "top cells" in text
        assert "marginal over gamma" in text
        assert "t_to_target" in text
        assert "4 cell(s) run" in text

        grid = ascii_sweep_grid(report, "gamma", "include_downlink")
        assert "include_downlink \\ gamma" in grid
        assert "mean final accuracy" in grid
        with pytest.raises(ValueError, match="no cells carry"):
            ascii_sweep_grid(report, "gamma", "nope")

    def test_to_dict_is_jsonable(self):
        report = SweepRunner(tiny_cells()[:1], parallel=1).run()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["cells"][0]["final_accuracy"] is not None


class TestRunnerBridges:
    def test_run_grid_with_store(self, tmp_path):
        report = run_grid(
            tiny_base(), {"gamma": [3.0, 5.0]}, store=str(tmp_path / "runs")
        )
        assert len(report) == 2 and report.executed == 2
        again = run_grid(
            tiny_base(), {"gamma": [3.0, 5.0]}, store=str(tmp_path / "runs")
        )
        assert again.reused == 2

    def test_registered_scenario_runs_with_overrides(self):
        spec = get_scenario("paper-baseline").with_overrides(
            rounds=1, num_train=160, num_test=80, num_clients=4, eval_every=1,
        )
        assert len(run_experiment(spec.to_config())) == 1

    def test_adhoc_spec_runs(self):
        spec = ScenarioSpec.from_config(tiny_base(rounds=1), name="adhoc")
        assert len(run_experiment(spec.to_config())) == 1
