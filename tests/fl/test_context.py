"""Tests for cross-cell world caching (repro.fl.context).

Satellite (c): cached and cold runs are bit-identical, different non-IID
knobs never share a world, the LRU evicts, and the shared columns are
frozen against accidental writes.
"""

import pytest

from repro.fl.config import ExperimentConfig
from repro.fl.context import DATASET_KEY_FIELDS, SimulationContext, WorldCache, dataset_key
from repro.fl.simulation import Simulation, run_experiment
from repro.io.history_io import history_to_dict

WALL_CLOCK_FIELDS = ("train_seconds", "compress_seconds")


def tiny(**overrides):
    base = dict(
        dataset="synth-cifar10", model="mlp", num_train=200, num_test=100,
        num_clients=4, rounds=2, seed=3, algorithm="topk",
        compression_ratio=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def stripped(history) -> dict:
    d = history_to_dict(history)
    for rec in d["records"]:
        for f in WALL_CLOCK_FIELDS:
            rec.pop(f, None)
    return d


class TestContextBitIdentity:
    def test_cached_matches_cold(self):
        cfg = tiny()
        ctx = SimulationContext.build(cfg)
        assert stripped(run_experiment(cfg, context=ctx)) == stripped(
            run_experiment(cfg)
        )

    def test_context_reused_across_cells_of_one_world(self):
        """Two cells sharing the key reuse one context; each matches cold."""
        cache = WorldCache()
        for ratio in (0.1, 0.3):
            cfg = tiny(compression_ratio=ratio)
            ctx = cache.get(cfg)
            assert stripped(run_experiment(cfg, context=ctx)) == stripped(
                run_experiment(cfg)
            )
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("mode", ["semisync", "async"])
    def test_event_driven_protocols_accept_context(self, mode):
        cfg = tiny(mode=mode, rounds=2)
        ctx = SimulationContext.build(cfg)
        assert stripped(run_experiment(cfg, context=ctx)) == stripped(
            run_experiment(cfg)
        )

    def test_hier_accepts_context(self):
        cfg = tiny(mode="hier", num_edges=2, num_clients=6)
        ctx = SimulationContext.build(cfg)
        assert stripped(run_experiment(cfg, context=ctx)) == stripped(
            run_experiment(cfg)
        )

    def test_virtual_shard_world_cached(self):
        cfg = tiny(virtual_shards=True, num_clients=64, participation=0.1)
        ctx = SimulationContext.build(cfg)
        assert ctx.partition is None
        assert stripped(run_experiment(cfg, context=ctx)) == stripped(
            run_experiment(cfg)
        )


class TestKeying:
    def test_key_covers_every_declared_field(self):
        cfg = tiny()
        key = dataset_key(cfg)
        assert len(key) == len(DATASET_KEY_FIELDS)
        for i, name in enumerate(DATASET_KEY_FIELDS):
            assert key[i] == getattr(cfg, name)

    @pytest.mark.parametrize("field,value", [
        ("beta", 0.1),
        ("seed", 4),
        ("num_train", 300),
        ("num_clients", 5),
        ("partition", "iid"),
        ("compute_heterogeneity", 0.9),
        ("virtual_shard_min", 24),
    ])
    def test_non_iid_knobs_never_share(self, field, value):
        cache = WorldCache()
        a = cache.get(tiny())
        b = cache.get(tiny(**{field: value}))
        assert a is not b
        assert cache.stats()["misses"] == 2

    def test_training_knobs_do_share(self):
        cache = WorldCache()
        a = cache.get(tiny())
        b = cache.get(tiny(compression_ratio=0.5, lr=0.01, algorithm="bcrs_opwa"))
        assert a is b

    def test_context_refuses_foreign_config(self):
        ctx = SimulationContext.build(tiny())
        with pytest.raises(ValueError, match="dataset key"):
            run_experiment(tiny(beta=0.1), context=ctx)


class TestWorldCache:
    def test_lru_eviction(self):
        cache = WorldCache(max_entries=2)
        c1 = cache.get(tiny(seed=1))
        cache.get(tiny(seed=2))
        cache.get(tiny(seed=1))  # refresh 1 → 2 is now LRU
        cache.get(tiny(seed=3))  # evicts 2
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(tiny(seed=1)) is c1  # still resident
        assert cache.stats()["misses"] == 3

    def test_clear(self):
        cache = WorldCache()
        cache.get(tiny())
        cache.clear()
        assert len(cache) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            WorldCache(max_entries=0)


class TestColumnSharing:
    def test_shared_columns_frozen(self):
        ctx = SimulationContext.build(tiny())
        pop = ctx.population
        for name in ("bandwidth_bps", "latency_s", "s_per_sample", "data_sizes"):
            with pytest.raises(ValueError):
                getattr(pop, name)[0] = 1

    def test_simulations_of_one_context_share_its_population(self):
        cfg = tiny()
        ctx = SimulationContext.build(cfg)
        with Simulation(cfg, context=ctx) as a, Simulation(cfg, context=ctx) as b:
            assert a.population is b.population is ctx.population
