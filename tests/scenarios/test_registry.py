"""The built-in scenario registry: validity, coverage, and the compressor override."""

from __future__ import annotations

import pytest

from repro.fl.config import MODES, ExperimentConfig
from repro.fl.simulation import Simulation
from repro.scenarios import (
    REGISTRY,
    ScenarioRegistry,
    ScenarioSpec,
    get_scenario,
)


class TestBuiltins:
    def test_every_builtin_builds_a_valid_config(self):
        for spec in REGISTRY:
            cfg = spec.to_config()  # raises on any cross-field violation
            assert cfg.rounds >= 1

    def test_every_builtin_is_documented(self):
        for spec in REGISTRY:
            assert len(spec.description) > 40, spec.name
            assert len(spec.expected) > 20, spec.name
            assert spec.tags, spec.name

    def test_registry_covers_every_protocol_mode(self):
        modes = {spec.to_config().mode for spec in REGISTRY}
        assert modes == set(MODES)

    def test_at_least_ten_builtins_with_unique_hashes(self):
        assert len(REGISTRY) >= 10
        hashes = [s.spec_hash() for s in REGISTRY]
        assert len(set(hashes)) == len(hashes)

    def test_by_tag_and_get(self):
        assert get_scenario("straggler-storm").to_config().contention == "fair"
        assert {s.name for s in REGISTRY if "hier" in s.tags} >= {
            "edge-quantized", "wan-hierarchy"
        }
        assert "paper-baseline" in REGISTRY.names()

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("nope")


class TestRegistryObject:
    def test_duplicate_name_refused(self):
        reg = ScenarioRegistry()
        reg.register(ScenarioSpec(name="x", overrides={"rounds": 2}))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(ScenarioSpec(name="x"))

    def test_invalid_config_refused_at_registration(self):
        reg = ScenarioRegistry()
        with pytest.raises(ValueError):
            # contention='fair' without server_ingress_mbps is invalid.
            reg.register(ScenarioSpec(name="bad", overrides={"contention": "fair"}))


class TestCompressorOverride:
    def test_config_validates_registry_name(self):
        with pytest.raises(ValueError, match="compressor must be one of"):
            ExperimentConfig(algorithm="topk", compressor="nope")

    def test_fedavg_rejects_override(self):
        with pytest.raises(ValueError, match="compressing algorithm"):
            ExperimentConfig(algorithm="fedavg", compressor="qsgd8")

    def test_override_reaches_clients_and_prices_quantized(self):
        """8-bit quantized uplinks move ~4x fewer bits than 32-bit sparse-at-1.0."""
        base = dict(
            dataset="synth-cifar10", num_train=160, num_test=80, num_clients=4,
            participation=0.5, rounds=1, batch_size=32, algorithm="topk",
            compression_ratio=1.0, eval_every=1,
        )
        dense = Simulation(ExperimentConfig(**base))
        quant = Simulation(ExperimentConfig(**base, compressor="qsgd8"))
        assert type(quant.compressors[0]).__name__ == "QSGDQuantizer"
        hd = dense.run()
        hq = quant.run()
        dense_bits = hd.records[0].comm.uplink_bits
        quant_bits = hq.records[0].comm.uplink_bits
        # topk at ratio 1.0 ships (32-bit index, 32-bit value) pairs = 64 d
        # bits per client; qsgd8 ships 8 d bits — an exact 8x reduction.
        assert quant_bits == pytest.approx(dense_bits / 8.0)

    def test_algorithm_grid_rejects_override_for_fedavg_cell(self, monkeypatch):
        """A compressor override is not silently dropped for the dense
        baseline: the grid fails with the config's own message before any
        cell (the valid topk one comes first) runs."""
        from repro.scenarios import run_grid, sweep

        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was validated")

        monkeypatch.setattr(sweep, "run_cell", no_cell_may_run)

        base = ExperimentConfig(
            dataset="synth-cifar10", num_train=160, num_test=80, num_clients=4,
            participation=0.5, rounds=1, batch_size=32, algorithm="topk",
            compressor="qsgd8", compression_ratio=0.5, eval_every=1,
        )
        with pytest.raises(ValueError, match="compressor override requires a compressing"):
            run_grid(base, {"algorithm": ["topk", "fedavg"]})

    def test_edge_quantized_scenario_runs_hier_with_qsgd(self):
        spec = get_scenario("edge-quantized").with_overrides(
            rounds=1, num_train=160, num_test=80, num_clients=4, num_edges=2
        )
        from repro.simtime import make_simulation

        with make_simulation(spec.to_config()) as sim:
            history = sim.run()
        rec = history.records[0]
        assert rec.edge_breakdown is not None  # really hierarchical
        assert rec.comm.uplink_bits > 0
