"""Pins for ``RngFactory.counter_key`` / ``counter`` and their per-name memo.

Every virtual-regime shard, loader stream, compressor stream and fault fate
is a function of these keys: a drift here silently re-draws every fleet-scale
history. The values were recorded before the key was memoised.
"""

import hashlib
import pickle

import numpy as np
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


#: (seed, name, key word, the uint64 key words Philox runs stream index 17 on).
#: NumPy converts ``key=[word, index]`` with ``np.asarray``: a word below 2⁶³
#: makes an int64 list and arrives exactly; one above makes a float64 list and
#: arrives rounded to 53 bits. Every virtual-fleet history ran on these keys.
PHILOX_KEYS = [
    (1, "virtual-shard", 7605754334627608055, [7605754334627608055, 17]),
    (2, "virtual-shard", 10976505321236964543, [10976505321236965376, 17]),
]


@pytest.mark.parametrize("seed,name,word,key", PHILOX_KEYS, ids=["below-2^63", "above-2^63"])
def test_philox_key_derivation_is_pinned(seed, name, word, key):
    rngs = RngFactory(seed)
    assert rngs.counter_key(name) == word
    got = rngs.philox_key(name, 17)
    assert got.dtype == np.uint64 and got.tolist() == key
    assert np.random.Philox(key=[word, 17]).state["state"]["key"].tolist() == key
    assert rngs.counter(name, 17).bit_generator.state["state"]["key"].tolist() == key


def _reads(rng):
    """An odd count of 32-bit integers (leaves a carried half-word), then doubles."""
    return rng.integers(0, 1000, size=7).tolist(), rng.random(3).tolist()


def test_counter_draws_what_the_philox_key_constructor_draws():
    """``counter`` seeds Philox with ready key words instead of ``key=``: the
    stream is the same, carried half-word included."""
    rngs = RngFactory(2)
    for name, index in [("virtual-shard", 0), ("fault-3", 41), ("adversary", 10**6)]:
        theirs = np.random.Generator(np.random.Philox(key=[rngs.counter_key(name), index]))
        assert _reads(rngs.counter(name, index)) == _reads(theirs)


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (2, np.uint32), (1, np.uint64)])
def test_ready_key_words_refuse_any_other_request(n_words, dtype):
    """Should NumPy ever ask for key words of another count or width, a stream
    fails loudly instead of running on a silently different key."""
    key = rng_module._Key(RngFactory(1).philox_key("virtual-shard", 17))
    assert key.generate_state(2, np.uint64).tolist() == [7605754334627608055, 17]
    with pytest.raises(ValueError, match="Philox asked for"):
        key.generate_state(n_words, dtype)


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
