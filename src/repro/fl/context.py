"""Cross-cell world caching: build a config's dataset/partition/fleet once.

A sweep over optimizer or compression axes re-runs
:class:`~repro.fl.simulation.Simulation` construction for every cell, and
most of that construction — raw dataset arrays, the train/test split, the
client partition, the :class:`~repro.population.table.Population` column
table — depends only on a small slice of the config. This module names that
slice (:data:`DATASET_KEY_FIELDS`), packages its products as an immutable
:class:`SimulationContext`, and caches contexts in a :class:`WorldCache` so
every cell sharing the key reuses the same arrays.

Correctness rests on two properties:

- **stream independence** — the construction consumes the ``RngFactory``
  named streams ``"partition"``, ``"links"``, ``"compute"`` and
  ``"shard-sizes"``, each an independent child of the config seed, so
  building them before any simulation exists shifts none of the streams a
  simulation draws afterwards. Seeded histories are bit-identical with a
  cached context or one the simulation built for itself
  (``tests/fl/test_context.py`` pins this).
- **column immutability** — every simulation of a key shares the
  context's one :class:`~repro.population.table.Population`, and its
  columns are frozen (``writeable=False``), so an accidental write raises
  instead of corrupting sibling cells.

Keying is deliberately conservative: every field that *could* influence the
products is in the key, so two configs differing in any non-IID knob
(``partition``, ``beta``, shard bounds, compute heterogeneity, seed, …)
never share a table — even where sharing would happen to be safe (e.g.
``beta`` under an IID partition).

The cache is **process-local**. The sweep's forked process workers each
hold their own instance (:data:`repro.scenarios.sweep` keeps one at module
level), which is what turns a 100-cell grid from 100 dataset constructions
into one per worker per key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.data.datasets import DATASET_SPECS, train_test_split
from repro.data.partition import (
    Partition,
    dirichlet_partition,
    iid_partition,
    shard_partition,
)
from repro.population.table import Population
from repro.utils.rng import RngFactory

__all__ = ["DATASET_KEY_FIELDS", "dataset_key", "SimulationContext", "WorldCache"]

#: The config fields the cached products are a pure function of. Everything
#: else (algorithm, compressor, ratios, server optimizer, protocol mode,
#: transport, backend, …) may vary freely across cells sharing one context.
DATASET_KEY_FIELDS = (
    "dataset",
    "num_train",
    "num_test",
    "num_clients",
    "seed",
    "partition",
    "beta",
    "virtual_shards",
    "virtual_shard_min",
    "virtual_shard_max",
    "compute_heterogeneity",
)


def dataset_key(config) -> tuple:
    """The world-cache key: the dataset-relevant slice of ``config``."""
    return tuple(getattr(config, name) for name in DATASET_KEY_FIELDS)


def _build_partition(config, train_set) -> Partition | None:
    """The client partition of ``train_set`` — none in the virtual-shard
    regime, where each client's shard is a counter-seeded procedural draw
    from the corpus and the fleet may dwarf it (:mod:`repro.population`)."""
    if config.virtual_shards:
        return None
    stream = RngFactory(config.seed).stream("partition")
    if config.partition == "dirichlet":
        return dirichlet_partition(train_set.y, config.num_clients, config.beta, seed=stream)
    if config.partition == "iid":
        return iid_partition(train_set.y, config.num_clients, seed=stream)
    return shard_partition(train_set.y, config.num_clients, seed=stream)


@dataclass(frozen=True)
class SimulationContext:
    """The cached, immutable products of one dataset key.

    ``population`` is the one :class:`Population` every simulation of the
    key uses, its four columns frozen. Its only mutable state is the
    :class:`~repro.utils.rng.RngFactory` memo of counter keys, which stores
    a deterministic hash per stream name and never changes a value, so
    cells running on a thread executor share it safely.
    """

    key: tuple
    train_set: object
    test_set: object
    partition: Partition | None
    population: Population

    @classmethod
    def build(cls, config) -> "SimulationContext":
        """Construct the world for ``config``'s dataset key — the one place
        a centralised simulation's dataset, partition and fleet columns are
        drawn (:class:`~repro.fl.simulation.Simulation` builds a context of
        its own when it is not handed a cached one)."""
        train_set, test_set = train_test_split(
            DATASET_SPECS[config.dataset], config.num_train, config.num_test, seed=config.seed
        )
        partition = _build_partition(config, train_set)
        population = Population.from_config(config, partition=partition)
        # Freeze the columns: a write from any consumer would leak state
        # between cells — fail loudly instead.
        for name in ("bandwidth_bps", "latency_s", "s_per_sample", "data_sizes"):
            getattr(population, name).flags.writeable = False
        return cls(
            key=dataset_key(config),
            train_set=train_set,
            test_set=test_set,
            partition=partition,
            population=population,
        )

    def check(self, config) -> None:
        """Refuse configs whose dataset key this context was not built for."""
        key = dataset_key(config)
        if key != self.key:
            raise ValueError(
                f"context built for dataset key {self.key} cannot serve a "
                f"config with key {key}"
            )


class WorldCache:
    """Thread-safe LRU of :class:`SimulationContext` by dataset key.

    ``max_entries`` bounds resident worlds (a synthetic-CIFAR world is a few
    MB; sweeps rarely span more than a handful of dataset keys at once).
    Eviction only drops the cache's reference — a simulation still running
    on an evicted context keeps it alive.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, SimulationContext] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, config) -> SimulationContext:
        """The context for ``config``'s dataset key, building on first use."""
        key = dataset_key(config)
        with self._lock:
            ctx = self._entries.get(key)
            if ctx is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return ctx
            self.misses += 1
        # Build outside the lock (construction is the expensive part); a
        # concurrent builder of the same key wastes one build, nothing more.
        ctx = SimulationContext.build(config)
        with self._lock:
            self._entries[key] = ctx
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return ctx

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Cache accounting: hits/misses/evictions/resident entries."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident": len(self._entries),
                "max_entries": self.max_entries,
            }
