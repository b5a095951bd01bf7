"""Deterministic random-number management.

Every stochastic component in the library takes a ``numpy.random.Generator``.
Experiments derive *independent named streams* from a single root seed via
``RngFactory`` so that, e.g., client sampling and data partitioning do not
perturb each other's sequences when one of them changes.

Two per-entity derivation schemes coexist:

- :meth:`RngFactory.child` mixes ``(seed, name, index)`` through a
  ``SeedSequence`` — the historical scheme every pre-population golden
  history was recorded under;
- :meth:`RngFactory.counter` keys a counter-based ``Philox`` bit generator
  directly on ``(seed, name, index)`` — O(1) construction with no
  SeedSequence mixing, the scheme the million-client population table uses
  for per-client draws (shard contents) that must be reconstructible on
  demand, in any order, on any process worker.

Both are pure functions of their inputs, so hydrating a client lazily
yields exactly the stream its eager construction would have received.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["as_generator", "RngFactory"]


class _Key(ISeedSequence):
    """Seeds ``Philox`` with ready key words: ``Philox(key=words)``'s stream, minus
    the throw-away ``SeedSequence`` that constructor first seeds from OS entropy."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"Philox asked for {n_words} {np.dtype(dtype)} words; the key is "
                             f"{self.words.size} {self.words.dtype}")
        return self.words


def as_generator(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a ``numpy.random.Generator``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, or an
    existing generator (returned unchanged).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


class RngFactory:
    """Derive named, reproducible random streams from one root seed.

    Two factories constructed with the same seed hand out identical streams
    for identical names, regardless of request order::

        f = RngFactory(7)
        rng_a = f.stream("sampler")
        rng_b = f.stream("partition")
    """

    _MAX_KEYS = 64  # bound of the counter_key memo: FaultInjector mints a name per epoch

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._keys: dict[str, int] = {}

    @property
    def seed(self) -> int:
        """Root seed this factory derives all streams from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for stream ``name`` (stable across calls)."""
        # Hash the name into entropy words; SeedSequence mixes them with the
        # root seed, so distinct names give independent streams.
        words = np.frombuffer(name.encode("utf-8").ljust(16, b"\0"), dtype=np.uint32)
        ss = np.random.SeedSequence(entropy=self._seed, spawn_key=tuple(int(w) for w in words))
        return np.random.default_rng(ss)

    def child(self, name: str, index: int) -> np.random.Generator:
        """Return the ``index``-th generator of the named family (e.g. per-client)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        words = np.frombuffer(name.encode("utf-8").ljust(16, b"\0"), dtype=np.uint32)
        ss = np.random.SeedSequence(
            entropy=self._seed,
            spawn_key=tuple(int(w) for w in words) + (int(index),),
        )
        return np.random.default_rng(ss)

    def counter_key(self, name: str) -> int:
        """The 64-bit Philox key word identifying stream ``name`` under this seed.

        A keyed BLAKE2 digest of the stream name, salted with the root seed,
        so distinct ``(seed, name)`` pairs map to distinct words (up to a 2⁻⁶⁴
        hash collision). Philox does not receive every word exactly; see
        :meth:`philox_key`. Hashed once per name; per-client calls reuse it.
        """
        key = self._keys.get(name)
        if key is None:
            if len(self._keys) >= self._MAX_KEYS:
                self._keys.clear()
            digest = hashlib.blake2b(
                name.encode("utf-8"), digest_size=8, key=str(self._seed).encode("utf-8")
            ).digest()
            key = self._keys[name] = int.from_bytes(digest, "little")
        return key

    def philox_key(self, name: str, index: int) -> np.ndarray:
        """The uint64 key words of stream ``(name, index)``, as ``Philox(key=[word, index])``
        converts them (``np.asarray(key).astype(np.uint64)``): a word from 2⁶³ up makes
        the list float64 and arrives rounded to 53 bits (seed 2's ``"virtual-shard"``
        10976505321236964543 runs as ...5376). Every virtual-fleet history ran on these."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return np.asarray([self.counter_key(name), int(index)]).astype(np.uint64)

    def counter(self, name: str, index: int) -> np.random.Generator:
        """Counter-based per-entity stream: ``Philox(key=philox_key(name, index))``.

        Unlike :meth:`child`, the key is consumed directly by the Philox
        block cipher — no SeedSequence pool mixing — so constructing the
        ``index``-th stream is O(1) and *stateless*: any process can rebuild
        client ``index``'s generator at any time, in any order, and read the
        identical sequence. Distinct ``(name, index)`` pairs key distinct
        Philox streams by construction (Philox's key words are independent
        cipher keys), which is what lets a million-client population draw
        per-client randomness on demand instead of holding a million
        generator objects.
        """
        return np.random.Generator(np.random.Philox(_Key(self.philox_key(name, index))))
