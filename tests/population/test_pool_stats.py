"""ClientPool cache accounting: hits/misses/evictions/peak residency."""

from __future__ import annotations

import pytest

from repro.data.datasets import DATASET_SPECS, train_test_split
from repro.fl.config import ExperimentConfig
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.population import ClientPool, Population


def build_pool(cache_size: int = 4) -> ClientPool:
    cfg = ExperimentConfig(
        dataset="synth-cifar10",
        model="mlp",
        num_train=256,
        num_test=64,
        num_clients=50,
        participation=0.1,
        virtual_shards=True,
        virtual_shard_min=4,
        virtual_shard_max=8,
        batch_size=8,
        seed=7,
    )
    spec = DATASET_SPECS[cfg.dataset]
    train_set, _ = train_test_split(spec, cfg.num_train, cfg.num_test, seed=cfg.seed)
    pop = Population.from_config(cfg, partition=None)
    return ClientPool(
        pop, train_set, cfg.batch_size, cache_size=cache_size
    )


class TestStats:
    def test_fresh_pool_reports_zeros(self):
        stats = build_pool().stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hydrations": 0,
            "resident": 0,
            "peak_resident": 0,
            "cache_size": 4,
            "loader_streams": 0,
        }

    def test_hits_misses_and_evictions(self):
        pool = build_pool(cache_size=2)
        pool[0]  # miss
        pool[0]  # hit
        pool[1]  # miss
        pool[2]  # miss -> evicts cid 0
        pool[0]  # miss again (was evicted) -> evicts cid 1
        stats = pool.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 4
        assert stats["hydrations"] == 4
        assert stats["evictions"] == 2
        assert stats["resident"] == 2
        assert stats["peak_resident"] == 2

    def test_loader_streams_count_distinct_clients_and_outlive_eviction(self):
        """Residency is cohort-bound; the loader generators are not — one per
        distinct client ever hydrated, kept through eviction so a rehydrated
        client resumes its batch stream."""
        pool = build_pool(cache_size=2)
        for cid in (0, 1, 0, 2, 3, 0, 1):  # 0 and 1 are evicted and rebuilt
            pool[cid]
        stats = pool.stats()
        assert stats["evictions"] > 0 and stats["resident"] == 2
        assert stats["hydrations"] == 6
        assert stats["loader_streams"] == 4  # clients {0, 1, 2, 3}
        before = stats["loader_streams"]
        pool[4]  # evicts one more client: the count grows by the new client only
        assert pool.stats()["loader_streams"] == before + 1
        pool[4]  # a hit changes nothing
        assert pool.stats()["loader_streams"] == before + 1

    def test_peak_tracks_high_water_mark_not_current(self):
        pool = build_pool(cache_size=8)
        for cid in range(5):
            pool[cid]
        assert pool.stats()["peak_resident"] == 5
        assert pool.stats()["resident"] == 5

    def test_observed_pool_mirrors_stats_into_metrics(self):
        obs = Obs(Tracer(), MetricsRegistry())
        pool = build_pool(cache_size=2)
        pool.observe(obs)
        pool[0], pool[0], pool[1], pool[2]
        assert obs.metrics.value("hydration", outcome="hit") == 1
        assert obs.metrics.value("hydration", outcome="miss") == 3
        assert obs.metrics.value("hydration", outcome="eviction") == 1
        assert obs.metrics.value("resident_clients") == 2
        hydrate_spans = [s for s in obs.tracer.spans if s.name == "hydrate"]
        assert len(hydrate_spans) == 3
        assert any(i.name == "evict" for i in obs.tracer.instants)

    def test_observe_with_null_obs_stays_detached(self):
        pool = build_pool()
        pool.observe(None)
        assert pool._obs is None
        pool.observe(Obs())  # disabled bundle
        assert pool._obs is None
        pool[0]
        assert pool.stats()["misses"] == 1  # plain accounting still on


class TestFailedHydration:
    """A shard build that raises must not leave the pool half-updated."""

    @staticmethod
    def break_once(pool, monkeypatch, where):
        """Make the next shard construction raise, then heal."""
        if where == "client":  # e.g. Client rejecting an empty shard
            import repro.population.hydration as hydration

            target, name, real = hydration, "_client_cls", hydration._client_cls
        else:  # a bad shard draw
            target, name = pool._population, "shard_indices"
            real = pool._population.shard_indices
        state = {"armed": True}

        def flaky(*args, **kwargs):
            if state["armed"]:
                state["armed"] = False
                raise ValueError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, flaky)

    @pytest.mark.parametrize("where", ["indices", "client"])
    @pytest.mark.parametrize("observed", [True, False])
    def test_span_closed_stats_consistent_next_lookup_works(
        self, monkeypatch, where, observed
    ):
        obs = Obs(Tracer(), MetricsRegistry())
        pool = build_pool(cache_size=2)
        if observed:
            pool.observe(obs)
        pool[0]
        before = pool.stats()
        self.break_once(pool, monkeypatch, where)
        with pytest.raises(ValueError, match="boom"):
            pool[1]
        # The failed lookup is neither a hit nor a miss and hydrated nothing.
        assert pool.stats() == before
        assert not pool._lock.locked()
        if observed:
            # The span of the failed build was closed (recorded), not leaked.
            assert [s.args["cid"] for s in obs.tracer.spans if s.name == "hydrate"] == [0, 1]
            assert obs.metrics.value("hydration", outcome="miss") == 1
        client = pool[1]  # same cid, now healthy
        assert client.client_id == 1 and pool[1] is client
        stats = pool.stats()
        assert stats["misses"] == stats["hydrations"] == 2
        assert stats["hits"] == 1 and stats["resident"] == 2
        if observed:
            spans = [s for s in obs.tracer.spans if s.name == "hydrate"]
            assert [s.args["cid"] for s in spans] == [0, 1, 1]
            assert all(s.end >= s.start for s in spans)
            assert obs.metrics.value("hydration", outcome="miss") == 2
            assert obs.metrics.value("resident_clients") == 2

    def test_failed_build_does_not_disturb_the_loader_stream(self, monkeypatch):
        """The retried client reads the stream a never-failed twin reads."""
        flaky, steady = build_pool(), build_pool()
        self.break_once(flaky, monkeypatch, "client")
        with pytest.raises(ValueError):
            flaky[3]
        got = next(iter(flaky[3].loader))
        want = next(iter(steady[3].loader))
        assert got[1].tolist() == want[1].tolist()
        assert got[0].tobytes() == want[0].tobytes()
