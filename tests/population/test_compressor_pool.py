"""CompressorPool: per-client objects and streams only where state lives.

Stateless compressors (``topk`` …) are one shared instance with no stream;
stateful ones keep exactly the per-client objects — and, when seeded, exactly
the per-client streams — the pool always built. ``old_way`` below is that
construction frozen with the stream derivations spelled out (no call into
``RngFactory``), so neither the pool nor the key memo can drift unnoticed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compression import registry
from repro.compression.registry import (
    available_compressors,
    compressor_traits,
    make_compressor,
    register_compressor,
)
from repro.compression.quantization import QSGDQuantizer
from repro.data.partition import Partition
from repro.population import CompressorPool, Population

SEED = 2024
N = 40
D = 600
CIDS = [0, 7, 39, 7]

STATELESS = ["topk"]
STATE_ONLY = ["ef_topk"]
SEEDED = ["qsgd8"]


def population(regime: str) -> Population:
    """``counter``: virtual shards (no partition). ``child``: partitioned."""
    partition = None
    if regime == "child":
        partition = Partition(
            [np.arange(4 * c, 4 * c + 4) for c in range(N)], np.zeros(4 * N, np.int64), 1
        )
    return Population(
        seed=SEED,
        bandwidth_bps=np.ones(N),
        latency_s=np.zeros(N),
        s_per_sample=np.ones(N),
        data_sizes=np.full(N, 4, dtype=np.int64),
        partition=partition,
        corpus_size=0 if partition is not None else 4 * N,
    )


def old_stream(regime: str, cid: int) -> np.random.Generator:
    """The ``"compressor"`` stream of client ``cid``, derived by hand."""
    if regime == "counter":
        digest = hashlib.blake2b(
            b"compressor", digest_size=8, key=str(SEED).encode("utf-8")
        ).digest()
        key = int.from_bytes(digest, "little")
        return np.random.Generator(np.random.Philox(key=[key, cid]))
    words = np.frombuffer(b"compressor".ljust(16, b"\0"), dtype=np.uint32)
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=SEED, spawn_key=tuple(int(w) for w in words) + (cid,)
        )
    )


def old_way(name: str, regime: str, cid: int):
    """What the pool built on every first touch before it read the traits."""
    return make_compressor(name, seed=old_stream(regime, cid))


def signature(update) -> tuple:
    """Every array a compressed update carries, as bytes."""
    return tuple(
        (k, v.tobytes() if isinstance(v, np.ndarray) else v)
        for k, v in sorted(vars(update).items())
    )


def delta(cid: int, round_: int) -> np.ndarray:
    return np.random.default_rng([cid, round_]).normal(size=D).astype(np.float32)


def test_every_builtin_declares_its_traits():
    assert sorted(STATELESS + STATE_ONLY + SEEDED) == available_compressors()
    for name in STATELESS:
        assert compressor_traits(name) == (False, False)
    for name in STATE_ONLY:
        assert compressor_traits(name) == (False, True)
    for name in SEEDED:
        assert compressor_traits(name) == (True, True)


@pytest.mark.parametrize("regime", ["child", "counter"])
@pytest.mark.parametrize("name", STATELESS)
def test_stateless_names_share_one_object(name, regime):
    pool = CompressorPool(name, population(regime))
    first = pool[0]
    assert all(pool[cid] is first for cid in range(N))
    assert pool.resident == 0
    # Sharing is only sound because compressing leaves no trace on the object.
    before = dict(vars(first))
    first.compress(delta(0, 0), 0.25)
    assert vars(first) == before


@pytest.mark.parametrize("regime", ["child", "counter"])
@pytest.mark.parametrize("name", STATE_ONLY + SEEDED)
def test_stateful_names_match_the_old_construction(name, regime):
    pool = CompressorPool(name, population(regime))
    comps = {cid: pool[cid] for cid in CIDS}
    assert len({id(c) for c in comps.values()}) == 3  # distinct, and cid 7 cached
    assert pool[7] is comps[7]
    assert pool.resident == 3
    refs = {cid: old_way(name, regime, cid) for cid in comps}
    for round_ in range(3):  # residuals and generators carry across rounds
        for cid, comp in comps.items():
            got = comp.compress(delta(cid, round_), 0.25)
            want = refs[cid].compress(delta(cid, round_), 0.25)
            assert signature(got) == signature(want), (name, regime, cid, round_)


@pytest.mark.parametrize("regime", ["child", "counter"])
def test_seeded_outputs_differ_between_clients(regime):
    pool = CompressorPool("qsgd8", population(regime))
    picks = {cid: pool[cid].compress(delta(0, 0)).values.tobytes() for cid in range(6)}
    assert len(set(picks.values())) == 6


def test_unseeded_stateful_instances_draw_no_stream(monkeypatch):
    calls = []
    monkeypatch.setattr(
        np.random, "Philox", lambda *a, **k: calls.append(1) or pytest.fail("stream built")
    )
    pool = CompressorPool("ef_topk", population("counter"))
    assert pool[3] is not pool[4]
    assert pool.resident == 2 and not calls


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made by a test vanish with it."""
    monkeypatch.setattr(registry, "_FACTORIES", dict(registry._FACTORIES))


@pytest.mark.parametrize("regime", ["child", "counter"])
def test_third_party_factory_without_metadata_stays_per_client_and_seeded(
    scratch_registry, regime
):
    seeds = []

    def factory(seed=0):
        seeds.append(seed)
        return QSGDQuantizer(seed=seed)

    register_compressor("third_party", factory)
    assert compressor_traits("third_party") == (True, True)
    pool = CompressorPool("third_party", population(regime))
    assert seeds == []  # nothing built until a client asks
    a, b = pool[1], pool[2]
    assert a is not b and pool[1] is a and pool.resident == 2
    assert all(isinstance(s, np.random.Generator) for s in seeds) and len(seeds) == 2
    for cid, comp in ((1, a), (2, b)):
        want = QSGDQuantizer(seed=old_stream(regime, cid)).compress(delta(cid, 0), 0.2)
        assert signature(comp.compress(delta(cid, 0), 0.2)) == signature(want)


def test_declared_stateless_third_party_is_shared(scratch_registry):
    built = []
    register_compressor(
        "pure", lambda seed=0: built.append(seed) or QSGDQuantizer(seed=0), seeded=False, stateful=False
    )
    pool = CompressorPool("pure", population("counter"))
    assert pool[0] is pool[39] and pool.resident == 0 and built == [0]


def test_seeded_implies_per_client(scratch_registry):
    """A generator that advances is client state, whatever the caller says."""
    register_compressor("odd", lambda seed=0: QSGDQuantizer(seed=seed), seeded=True, stateful=False)
    assert compressor_traits("odd") == (True, True)


def test_unknown_name_and_bad_cid():
    with pytest.raises(KeyError, match="unknown compressor 'nope'"):
        CompressorPool("nope", population("counter"))
    with pytest.raises(KeyError, match="unknown compressor 'nope'"):
        make_compressor("nope")
    for name in ("topk", "ef_topk"):
        pool = CompressorPool(name, population("counter"))
        for cid in (-1, N):
            with pytest.raises(IndexError):
                pool[cid]
        assert len(pool) == N and len(list(pool)) == N
