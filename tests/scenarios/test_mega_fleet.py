"""mega-fleet finally lives up to its name: a million clients, zero eager
materialization. The latent cap (the registry entry used to be sized to
what per-client construction survived: 40 clients) is gone; these tests pin
that constructing the spec — and even the full simulation — touches no
client objects, so the cap can never silently return."""

from __future__ import annotations

import numpy as np

from repro.fl.simulation import Simulation
from repro.scenarios import get_scenario


def test_spec_is_fleet_scale_and_materializes_nothing():
    spec = get_scenario("mega-fleet")
    cfg = spec.to_config()  # config only — no dataset, clients, or model
    assert cfg.num_clients == 1_000_000
    assert cfg.clients_per_round == 10_000
    assert cfg.virtual_shards  # fleet dwarfs the corpus by design
    assert cfg.num_train < cfg.num_clients


def test_simulation_constructs_without_hydrating_a_single_client():
    cfg = get_scenario("mega-fleet").to_config()
    with Simulation(cfg) as sim:
        assert sim.population.num_clients == 1_000_000
        assert len(sim.clients) == 1_000_000
        assert sim.clients.hydrations == 0  # columns only, no Client objects
        assert sim.compressors.resident == 0
        assert sim.partition is None
        # The fleet's whole footprint is four numpy columns: 32 bytes/client.
        arrays = [v for v in vars(sim.population).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 1_000_000 * 32
