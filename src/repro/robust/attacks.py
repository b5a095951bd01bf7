"""Byzantine client behaviors.

Membership is a pure O(1) function of ``(seed, cid)`` through the
``"adversary"`` counter stream — no table of adversarial ids, no hydration
in the parent process, no draw order to preserve. Any worker on any backend
asks :func:`is_adversary` for the clients it executes and reads the same
answer, which is what keeps adversarial runs bit-identical across
serial/process and lets a million-client fleet carry adversaries
without O(fleet) state.

Two corruption sites:

- **delta attacks** (:func:`apply_delta_attack`) mutate the trained update
  in the worker, after local training and before compression — the
  compressor then faithfully transmits the poisoned vector, exactly like a
  real byzantine client would;
- **data poisoning** (:func:`flip_labels`) rewrites the client's shard at
  hydration (:class:`repro.population.hydration.ClientPool`), so the
  label-flip adversary trains honestly on dishonest data and virtual-shard
  fleets stay O(active cohort).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.rng import RngFactory

__all__ = ["ADVERSARY_STREAM", "is_adversary", "apply_delta_attack", "flip_labels"]

#: The counter-stream name adversarial membership draws from.
ADVERSARY_STREAM = "adversary"

#: One factory per seed, so its ``counter_key`` memo serves every membership
#: draw of a run (a handful of seeds live at once: sweep cells, tests).
_factory = lru_cache(maxsize=8)(RngFactory)


def is_adversary(seed: int, cid: int, fraction: float) -> bool:
    """Whether client ``cid`` is adversarial under ``(seed, fraction)``.

    Each client flips its own independent coin from the ``"adversary"``
    counter stream, so the expected adversarial fraction is ``fraction``
    and membership never depends on fleet size, sampling order, or which
    process asks. ``fraction=0`` short-circuits without constructing a
    generator — the honest path stays draw-free.
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    rng = _factory(seed).counter(ADVERSARY_STREAM, cid)
    return float(rng.random()) < fraction


def apply_delta_attack(
    delta: np.ndarray, adversary: str, *, scale: float = 10.0
) -> np.ndarray:
    """Corrupt a trained update in place; returns ``delta``.

    ``sign_flip`` negates the update (the classic gradient-ascent
    byzantine), ``scaled`` inflates it by ``scale`` (model-replacement
    style). ``label_flip`` is a data-poisoning adversary — its delta is the
    honest output of training on flipped labels, so here it is a no-op.
    """
    if adversary == "sign_flip":
        np.negative(delta, out=delta)
    elif adversary == "scaled":
        delta *= float(scale)
    elif adversary != "label_flip":
        raise ValueError(f"unknown adversary {adversary!r}")
    return delta


def flip_labels(y: np.ndarray, num_classes: int) -> np.ndarray:
    """Deterministic label flip ``y ↦ (C−1) − y``, in place; returns ``y``.

    The fixed permutation (not a random relabeling) keeps poisoning a pure
    function of the shard — no RNG, no order sensitivity — and maximally
    displaces every class under the usual ordered label sets.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    np.subtract(num_classes - 1, y, out=y)
    return y
