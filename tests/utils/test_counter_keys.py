"""Pins for ``RngFactory.counter_key`` / ``counter`` and their per-name memo.

Every virtual-regime shard, loader stream, compressor stream and fault fate
is a function of these keys: a drift here silently re-draws every fleet-scale
history. The values were recorded before the key was memoised.
"""

import hashlib
import pickle

import pytest

from repro.utils import rng as rng_module
from repro.utils.rng import RngFactory

KEYS = [
    (0, "client", 17707774080498810434),
    (2024, "compressor", 5474993803634302819),
    (7, "fault-drop-12", 12726033434296437039),
]

DRAWS = [
    (0, "client", 0, [8968541343340315785, 7463727426095808904,
                      6067526619890720902, 4158776592017990582]),
    (2024, "compressor", 999_999, [2121299976655734318, 2478665052303025967,
                                   5651928942048742486, 6155794219657254515]),
    (7, "virtual-shard", 42, [4630639079688909480, 979718239470005108,
                              6921443329477480006, 5198827930766791829]),
]


@pytest.mark.parametrize("seed,name,key", KEYS)
def test_key_values_are_pinned(seed, name, key):
    rngs = RngFactory(seed)
    assert rngs.counter_key(name) == key  # cold: hashed
    assert rngs.counter_key(name) == key  # warm: from the memo


@pytest.mark.parametrize("seed,name,index,first", DRAWS)
def test_first_draws_are_pinned(seed, name, index, first):
    rngs = RngFactory(seed)
    for _ in range(2):  # cold key, then memoised key
        assert rngs.counter(name, index).integers(0, 2**63, size=4).tolist() == first


@pytest.fixture
def blake2_calls(monkeypatch):
    calls = []
    real = hashlib.blake2b

    def counting(data=b"", **kwargs):
        calls.append(bytes(data))
        return real(data, **kwargs)

    monkeypatch.setattr(rng_module.hashlib, "blake2b", counting)
    return calls


def test_one_hash_per_name_not_per_call(blake2_calls):
    rngs = RngFactory(3)
    for cid in range(500):
        rngs.counter("client", cid)
        rngs.counter("compressor", cid)
    assert sorted(blake2_calls) == [b"client", b"compressor"]


def test_the_memo_is_bounded_and_eviction_is_invisible(blake2_calls):
    """FaultInjector mints one name per epoch: names must not pile up, and a
    name hashed again after the memo turned over yields the same key."""
    rngs = RngFactory(5)
    first = {epoch: rngs.counter_key(f"fault-{epoch}") for epoch in range(1000)}
    assert len(rngs._keys) <= RngFactory._MAX_KEYS
    assert len(blake2_calls) == 1000
    assert {epoch: rngs.counter_key(f"fault-{epoch}") for epoch in range(1000)} == first
    assert len(rngs._keys) <= RngFactory._MAX_KEYS


def test_memo_is_per_factory_and_survives_pickle():
    a, b = RngFactory(1), RngFactory(2)
    assert a.counter_key("client") != b.counter_key("client")
    clone = pickle.loads(pickle.dumps(a))
    assert clone.counter_key("client") == a.counter_key("client")
    assert clone.counter("client", 9).random() == a.counter("client", 9).random()
