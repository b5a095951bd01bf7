"""Call-count budget of the fleet-round participant path.

One ``bcrs_opwa`` round over 100,000 virtual-shard clients with a cohort of
50, run under counting monkeypatches. What is asserted is *how often* the
expensive per-participant primitives run — Philox stream constructions,
keyed BLAKE2 digests, per-client compressor objects — so the budget repeats
exactly on any host and needs no timing. A regression here is per-client
Python creeping back into the round.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.simulation import Simulation
from repro.utils import rng as rng_module

FLEET = 100_000
COHORT = 50


def fleet_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=512,
        num_test=64,
        num_clients=FLEET,
        participation=COHORT / FLEET,
        virtual_shards=True,
        virtual_shard_min=8,
        virtual_shard_max=24,
        hydration_cache=COHORT,
        rounds=1,
        batch_size=8,
        eval_every=10,
        algorithm="bcrs_opwa",
        compression_ratio=0.1,
        alpha=1.5 / COHORT,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def counted(monkeypatch):
    """Counts of Philox constructions and of BLAKE2 digests (by message)."""
    counts = {"philox": 0, "blake2": []}
    real_philox, real_blake2 = np.random.Philox, hashlib.blake2b

    def philox(*args, **kwargs):
        counts["philox"] += 1
        return real_philox(*args, **kwargs)

    def blake2b(data=b"", **kwargs):
        counts["blake2"].append(bytes(data))
        return real_blake2(data, **kwargs)

    monkeypatch.setattr(np.random, "Philox", philox)
    monkeypatch.setattr(rng_module.hashlib, "blake2b", blake2b)
    return counts


def one_round(config):
    """Construct, run one round, return (pool stats, compressors resident)."""
    with Simulation(config) as sim:
        sim.run(1)
        record = sim.history.records[0]
        assert len(record.selected) == COHORT
        assert np.isfinite(record.train_loss)
        return sim.clients.stats(), sim.compressors.resident


@pytest.mark.parametrize(
    "compressor,streams_per_miss,objects,names",
    [
        # loader stream + shard draw; the shared Top-K needs neither a
        # stream nor an object of its own.
        (None, 2, 0, [b"client", b"virtual-shard"]),
        # a seeded compressor adds its own stream and a per-client object.
        ("qsgd8", 3, COHORT, [b"client", b"compressor", b"virtual-shard"]),
    ],
    ids=["topk", "qsgd8"],
)
def test_budget(counted, compressor, streams_per_miss, objects, names):
    stats, resident = one_round(fleet_config(compressor=compressor))
    assert stats["misses"] == stats["hydrations"] == COHORT
    assert resident == objects
    assert 0 < counted["philox"] <= streams_per_miss * stats["misses"]
    # One keyed digest per stream name — not one per client, not one per call.
    assert sorted(counted["blake2"]) == names


def test_budget_repeats_exactly(counted):
    """The counts are a property of the code, not of the run."""
    seen = []
    for _ in range(2):
        counted["philox"], counted["blake2"][:] = 0, []
        one_round(fleet_config())
        seen.append((counted["philox"], sorted(counted["blake2"])))
    assert seen[0] == seen[1] == (2 * COHORT, [b"client", b"virtual-shard"])
