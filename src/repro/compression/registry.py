"""Name → compressor-factory registry.

Lets experiment configs refer to compressors by string while keeping
construction — including per-client statefulness for error feedback — in
one place. Three are built in, one per trait combination: ``"topk"`` (the
paper's Alg. 1 line 12; shared, stateless), ``"ef_topk"`` (the EF-TopK
baseline; a residual per client) and ``"qsgd8"`` (Sec. 2.2's quantization;
a seeded stream per client). :func:`register_compressor` adds more.

A registration also declares the compressor's wire size as a function of the
width ``d`` and ratio ``r`` (:func:`wire_size`): the simulator prices every
upload from that declaration, before the update exists and at whatever width
it prices (the paper's Eq. 4 ``L + V/B``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compression.base import Compressor
from repro.compression.sparsifiers import TopK, k_from_ratio

__all__ = [
    "make_compressor", "available_compressors", "register_compressor", "compressor_traits", "wire_size"
]

#: ``wire(d, ratio) -> (entries, bits per entry, payload kind)``
WireRule = Callable[[int, float], tuple[int, int, str]]

#: name → (factory, reads its seed, instances carry per-client state, wire rule)
_FACTORIES: dict[str, tuple[Callable[..., Compressor], bool, bool, WireRule]] = {}


def register_compressor(
    name: str,
    factory: Callable[..., Compressor],
    *,
    wire: WireRule,
    seeded: bool = True,
    stateful: bool = True,
) -> None:
    """Register a new compressor factory under ``name``.

    The factory receives ``(seed)`` as keyword argument and must return a
    fresh, independent compressor instance. ``wire(d, ratio)`` declares what
    its update of a width-``d`` vector at ``ratio`` puts on the wire:
    ``(entries, bits per entry, kind)``, whose product equals the emitted
    update's ``bits``. Kind ``"sparse"`` promises a prefix of the entries is
    itself a valid update, so a truncated upload keeps one; ``"quantized"``,
    ``"dense"`` or ``"custom"`` uploads cannot be truncated. ``seeded``: it
    reads that seed; ``stateful``: an instance accumulates per-client state
    (error-feedback residuals; a seeded generator always does). A
    ``CompressorPool`` shares one instance of a stateless compressor among
    all clients and derives a per-client stream only for a seeded one; the
    defaults are always safe.
    """
    if name in _FACTORIES:
        raise ValueError(f"compressor {name!r} already registered")
    _FACTORIES[name] = (factory, bool(seeded), bool(stateful or seeded), wire)


def available_compressors() -> list[str]:
    """Sorted registered names."""
    return sorted(_FACTORIES)


def _entry(name: str) -> tuple[Callable[..., Compressor], bool, bool, WireRule]:
    try:
        return _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {available_compressors()}"
        ) from None


def compressor_traits(name: str) -> tuple[bool, bool]:
    """``(seeded, stateful)`` as declared at registration."""
    return _entry(name)[1:3]


def wire_size(name: str, d: int, ratio: float) -> tuple[int, int, str]:
    """``(entries, bits per entry, kind)`` of ``name``'s upload of a
    width-``d`` vector at ``ratio``, as declared at registration."""
    return _entry(name)[3](d, ratio)


def make_compressor(name: str, *, seed: int | np.random.Generator = 0) -> Compressor:
    """Instantiate a fresh compressor by registry name."""
    return _entry(name)[0](seed=seed)


# Error feedback and the quantizer are imported by their factories, so a run
# loads only the compressor it selects; names, traits and wire sizes register here.


def _ef(inner: Compressor) -> Compressor:
    from repro.compression.ef import ErrorFeedback

    return ErrorFeedback(inner)


def _qsgd(bits: int, seed: int | np.random.Generator) -> Compressor:
    from repro.compression.quantization import QSGDQuantizer

    return QSGDQuantizer(bits=bits, seed=seed)


def _topk_wire(d: int, ratio: float) -> tuple[int, int, str]:
    return k_from_ratio(d, ratio), 64, "sparse"  # (int32 index, float32 value) pairs


register_compressor("topk", lambda seed=0: TopK(), wire=_topk_wire, seeded=False, stateful=False)
register_compressor("ef_topk", lambda seed=0: _ef(TopK()), wire=_topk_wire, seeded=False)
register_compressor("qsgd8", lambda seed=0: _qsgd(8, seed), wire=lambda d, ratio: (d, 8, "quantized"))
