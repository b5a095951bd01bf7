"""Lazy client/compressor pools: hydrate the cohort, not the fleet.

The pools are drop-in replacements for the eager ``list[Client]`` /
``list[Compressor]`` the simulations used to build — same indexing protocol
(``pool[cid]``), same length, same iteration — but a full object exists only
while a client is *hot*:

- :class:`ClientPool` holds an LRU of hydrated :class:`~repro.fl.client.
  Client` objects. Hydrating client ``cid`` rebuilds its shard from the
  population's :meth:`~repro.population.table.Population.shard_indices` and
  wires in the client's **persistent** batch-loader generator, which lives
  in a side table outside the LRU. Eviction therefore only drops the shard
  arrays and loader object; re-hydration resumes the identical RNG stream,
  so cache size is semantically invisible — a fact the equivalence suite
  pins by running goldens under a cache of 2. The side table is the one
  part of the pool that is *not* cohort-bound: it keeps one generator per
  distinct participant for the life of the run (``loader_streams``).
- :class:`CompressorPool` hands every client the one shared instance of a
  stateless compressor (Top-K). A stateful one hydrates on first use and is
  kept forever: error-feedback residuals and advancing generators *are*
  client state with no reconstruction rule. Only ever-sampled clients pay.

Stream derivation matches the population's shard regime: the partitioned
regime keeps the historical ``RngFactory.child`` SeedSequence families
(``"client"``/``"compressor"``) for bit-for-bit golden equivalence; the
virtual regime derives both from counter-based Philox streams
(:meth:`~repro.utils.rng.RngFactory.counter`), the O(1) scheme that scales
to million-client fleets. Both are pure functions of ``(seed, cid)``, so
hydration order — across rounds, threads, or forked process workers — can
never change a client's draws.

Thread/process notes: a ``threading.Lock`` guards pool bookkeeping because
the thread backend shares one pool among all worker contexts (each client
still runs at most one task at a time, so the *objects* need no locking,
exactly as before the refactor). The fork-based process backend inherits
the pools copy-on-write; each worker then hydrates only the cids of its
``cid % workers`` shard, which is what keeps worker memory at
O(cohort / workers).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.compression.registry import compressor_traits, make_compressor
from repro.obs.tracer import NULL_TRACER
from repro.population.table import Population
from repro.utils.rng import RngFactory

__all__ = ["ClientPool", "CompressorPool", "DEFAULT_CACHE"]

#: LRU floor: small fleets fit entirely, so legacy tests that iterate
#: ``sim.clients`` see every client resident at once.
DEFAULT_CACHE = 64

#: LRU ceiling for the default policy (explicit ``hydration_cache`` wins):
#: bounds resident shard memory even when the cohort is huge.
DEFAULT_CACHE_CAP = 4096


def default_cache_size(cohort: int) -> int:
    """Default LRU capacity: the round's cohort, clamped to sane bounds."""
    return max(DEFAULT_CACHE, min(int(cohort), DEFAULT_CACHE_CAP))


def _client_cls():
    # Imported lazily: repro.fl.simulation imports this module, and pulling
    # repro.fl.client in at module scope would run repro.fl's package init
    # mid-import of repro.population — a cycle. Pool construction happens
    # long after both packages are fully initialized.
    from repro.fl.client import Client

    return Client


class ClientPool:
    """Sequence-like lazy ``Client`` pool over a :class:`Population`."""

    def __init__(
        self,
        population: Population,
        train_set,
        batch_size: int,
        *,
        cache_size: int,
        label_flip_fraction: float = 0.0,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if not 0.0 <= label_flip_fraction <= 1.0:
            raise ValueError(
                f"label_flip_fraction must be in [0, 1], got {label_flip_fraction}"
            )
        self._population = population
        self._train_set = train_set
        self._batch_size = int(batch_size)
        self._cache_size = int(cache_size)
        #: Label-flip poisoning (repro.robust): adversarial clients — a pure
        #: function of (population.seed, cid) — train on shards whose labels
        #: are flipped *at hydration*, so poisoning costs O(cohort) and the
        #: world-cached corpus arrays stay untouched (``subset`` copies).
        self._flip_fraction = float(label_flip_fraction)
        self._num_classes = (
            int(train_set.y.max()) + 1 if self._flip_fraction > 0.0 else 0
        )
        self._rngs = RngFactory(population.seed)
        self._counter_streams = population.partition is None
        self._cache: OrderedDict[int, object] = OrderedDict()
        #: cid → loader generator; survives eviction (the one piece of
        #: client state that advances during training), so it grows by one
        #: Philox/PCG generator per *distinct participant*, not per cohort —
        #: reported as ``stats()["loader_streams"]``.
        self._loader_rngs: dict[int, np.random.Generator] = {}
        self._lock = threading.Lock()
        #: Total Client constructions ever (rehydrations included) — the
        #: materialization observable the no-eager-fleet tests assert on.
        self.hydrations = 0
        # Always-on cache accounting (plain int bumps — the cost of keeping
        # these unconditional is noise next to shard reconstruction).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_resident = 0
        self._obs = None

    def __len__(self) -> int:
        return self._population.num_clients

    def __iter__(self):
        return (self[cid] for cid in range(len(self)))

    def _loader_rng(self, cid: int) -> np.random.Generator:
        rng = self._loader_rngs.get(cid)
        if rng is None:
            if self._counter_streams:
                rng = self._rngs.counter("client", cid)
            else:
                rng = self._rngs.child("client", cid)
            self._loader_rngs[cid] = rng
        return rng

    def __getitem__(self, cid: int):
        cid = int(cid)
        if not 0 <= cid < len(self):
            raise IndexError(f"client id {cid} out of range [0, {len(self)})")
        obs = self._obs
        with self._lock:
            client = self._cache.get(cid)
            if client is not None:
                self._cache.move_to_end(cid)
                self.hits += 1
                if obs is not None:
                    obs.metrics.counter("hydration", outcome="hit").inc()
                return client
            tracer = obs.tracer if obs is not None else NULL_TRACER
            # ``with``: a raising shard build still closes the span (and counts nothing).
            with tracer.span("hydrate", cat="pop", cid=cid):
                shard = self._train_set.subset(self._population.shard_indices(cid))
                if self._flip_fraction > 0.0:
                    from repro.robust.attacks import flip_labels, is_adversary

                    if is_adversary(self._population.seed, cid, self._flip_fraction):
                        flip_labels(shard.y, self._num_classes)
                client = _client_cls()(cid, shard, self._batch_size, self._loader_rng(cid))
            self.misses += 1
            self._cache[cid] = client
            self.hydrations += 1
            while len(self._cache) > self._cache_size:
                evicted_cid, _ = self._cache.popitem(last=False)
                self.evictions += 1
                if obs is not None:
                    obs.tracer.instant("evict", cat="pop", cid=evicted_cid)
                    obs.metrics.counter("hydration", outcome="eviction").inc()
            # Peak is post-eviction steady state, so it never exceeds the
            # configured cache size.
            if len(self._cache) > self.peak_resident:
                self.peak_resident = len(self._cache)
            if obs is not None:
                obs.metrics.counter("hydration", outcome="miss").inc()
                obs.metrics.gauge("resident_clients").set(len(self._cache))
            return client

    def observe(self, obs) -> None:
        """Attach an :class:`repro.obs.Obs` bundle (no-op when disabled).

        Forked process workers inherit the parent's pool copy-on-write; the
        parent's tracer would silently swallow worker-side appends, so the
        attachment is per-process state and workers report through
        :class:`~repro.exec.base.TaskResult` instead.
        """
        self._obs = obs if obs is not None and obs.enabled else None

    def stats(self) -> dict:
        """Cache accounting: hits/misses/evictions/resident/peak, plus
        ``loader_streams`` — loader generators held outside the LRU, one per
        distinct client ever hydrated (eviction does not release them)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hydrations": self.hydrations,
                "resident": len(self._cache),
                "peak_resident": self.peak_resident,
                "cache_size": self._cache_size,
                "loader_streams": len(self._loader_rngs),
            }

    @property
    def resident(self) -> int:
        """Clients currently hydrated (≤ cache size)."""
        return len(self._cache)


class CompressorPool:
    """Lazy per-client compressors — one shared instance where the registry says
    stateless (``topk``); else hydrated once (own stream only if seeded), retained forever."""

    def __init__(self, name: str, population: Population):
        self._name = str(name)
        self._population = population
        self._seeded, stateful = compressor_traits(self._name)
        self._shared = None if stateful else make_compressor(self._name)
        self._rngs = RngFactory(population.seed)
        self._counter_streams = population.partition is None
        self._pool: dict[int, object] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._population.num_clients

    def __iter__(self):
        return (self[cid] for cid in range(len(self)))

    def __getitem__(self, cid: int):
        cid = int(cid)
        if not 0 <= cid < len(self):
            raise IndexError(f"client id {cid} out of range [0, {len(self)})")
        if self._shared is not None:
            return self._shared
        with self._lock:
            comp = self._pool.get(cid)
            if comp is None:
                if not self._seeded:
                    seed = 0
                elif self._counter_streams:
                    seed = self._rngs.counter("compressor", cid)
                else:
                    seed = self._rngs.child("compressor", cid)
                comp = make_compressor(self._name, seed=seed)
                self._pool[cid] = comp
            return comp

    @property
    def resident(self) -> int:
        """Per-client compressors built so far (0 for a stateless name)."""
        return len(self._pool)
