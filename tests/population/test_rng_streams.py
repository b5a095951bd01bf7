"""Property tests for the population's per-client randomness.

The whole lazy-hydration design rests on one invariant: a client's streams
are pure functions of ``(seed, stream name, cid)`` — independent of *when*,
*in what order*, *how many times*, or *in which process* they are built.
These tests pin that invariant for both derivation schemes (the legacy
SeedSequence ``child`` families and the counter-based Philox ``counter``
streams) and for the pools built on top of them.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.data.datasets import DATASET_SPECS, train_test_split
from repro.fl.config import ExperimentConfig
from repro.population import ClientPool, Population
from repro.utils.rng import RngFactory

SEED = 2024


def virtual_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10",
        model="mlp",
        num_train=256,
        num_test=64,
        num_clients=500,
        participation=0.02,
        virtual_shards=True,
        virtual_shard_min=8,
        virtual_shard_max=24,
        batch_size=8,
        seed=SEED,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def draws(rng: np.random.Generator, n: int = 8) -> tuple:
    return tuple(rng.integers(0, 2**63, size=n).tolist())


# ------------------------------------------------------------- derivation


@pytest.mark.parametrize("scheme", ["child", "counter"])
def test_streams_are_order_independent(scheme):
    """Requesting cid streams in any order yields identical sequences."""
    make_a = getattr(RngFactory(SEED), scheme)
    make_b = getattr(RngFactory(SEED), scheme)
    ids = [17, 0, 499, 3, 17]  # shuffled, with a repeat
    forward = {cid: draws(make_a("client", cid)) for cid in sorted(set(ids))}
    for cid in ids:
        assert draws(make_b("client", cid)) == forward[cid]


@pytest.mark.parametrize("scheme", ["child", "counter"])
def test_rebuilding_a_stream_twice_is_identical(scheme):
    rngs = RngFactory(SEED)
    make = getattr(rngs, scheme)
    assert draws(make("client", 42)) == draws(make("client", 42))


def test_distinct_stream_cid_pairs_never_collide():
    """First words of every (stream, cid) pair are pairwise distinct."""
    rngs = RngFactory(SEED)
    seen: dict[tuple, tuple] = {}
    for name in ("client", "compressor", "virtual-shard"):
        for cid in list(range(64)) + [10_000, 999_999]:
            sig = draws(rngs.counter(name, cid), n=4)
            assert sig not in seen.values(), f"collision at ({name}, {cid})"
            seen[(name, cid)] = sig


def test_counter_keys_differ_across_seeds_and_names():
    a, b = RngFactory(1), RngFactory(2)
    assert a.counter_key("client") != b.counter_key("client")
    assert a.counter_key("client") != a.counter_key("compressor")
    assert draws(a.counter("client", 0)) != draws(b.counter("client", 0))


# -------------------------------------------------------------- hydration


def build_pool(cache_size: int = 64) -> ClientPool:
    cfg = virtual_config()
    spec = DATASET_SPECS[cfg.dataset]
    train_set, _ = train_test_split(spec, cfg.num_train, cfg.num_test, seed=cfg.seed)
    pop = Population.from_config(cfg, partition=None)
    return ClientPool(
        pop, train_set, cfg.batch_size, cache_size=cache_size
    )


def first_batch_signature(client) -> tuple:
    x, y = next(iter(client.loader))
    return (float(x.sum()), y.tolist(), client.num_samples)


def test_hydration_order_does_not_change_shards_or_streams():
    """Hydrating in ascending vs shuffled order gives identical clients."""
    ids = [0, 7, 133, 42, 499]
    a, b = build_pool(), build_pool()
    sig_a = {cid: first_batch_signature(a[cid]) for cid in sorted(ids)}
    sig_b = {cid: first_batch_signature(b[cid]) for cid in reversed(sorted(ids))}
    assert sig_a == sig_b


def test_eviction_resumes_the_same_loader_stream():
    """Evict a client mid-stream; the rehydrated one continues the exact
    sequence a never-evicted twin produces."""
    churn, steady = build_pool(cache_size=1), build_pool(cache_size=64)
    seq_steady = [first_batch_signature(steady[5]) for _ in range(2)]
    first = first_batch_signature(churn[5])
    churn[6]  # cache_size=1 → evicts client 5
    assert churn.resident == 1
    second = first_batch_signature(churn[5])  # rehydrated
    assert [first, second] == seq_steady
    assert churn.hydrations == 3  # 5, 6, then 5 again


def test_virtual_shards_are_stable_and_sized_from_columns():
    cfg = virtual_config()
    pop = Population.from_config(cfg, partition=None)
    for cid in (0, 250, 499):
        ix1, ix2 = pop.shard_indices(cid), pop.shard_indices(cid)
        assert np.array_equal(ix1, ix2)
        assert len(ix1) == int(pop.data_sizes[cid])
        assert cfg.virtual_shard_min <= len(ix1) <= cfg.virtual_shard_max
        assert ix1.min() >= 0 and ix1.max() < cfg.num_train


def _worker_signatures(ids):
    pool = build_pool()
    return {cid: first_batch_signature(pool[cid]) for cid in ids}


def test_process_workers_hydrate_identical_streams():
    """Different processes hydrating disjoint (and overlapping) slices see
    the same per-client shards and loader draws as the parent."""
    ids = [3, 77, 410]
    parent = _worker_signatures(ids)
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
    with ctx.Pool(2) as pool:
        child_a, child_b = pool.map(_worker_signatures, [ids[:2], ids[1:]])
    assert child_a == {cid: parent[cid] for cid in ids[:2]}
    assert child_b == {cid: parent[cid] for cid in ids[1:]}
