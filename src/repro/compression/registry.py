"""Name → compressor-factory registry.

Lets experiment configs refer to compressors by string while keeping
construction — including per-client statefulness for error feedback — in
one place. Three are built in, one per trait combination: ``"topk"`` (the
paper's Alg. 1 line 12; shared, stateless), ``"ef_topk"`` (the EF-TopK
baseline; a residual per client) and ``"qsgd8"`` (Sec. 2.2's quantization;
a seeded stream per client). :func:`register_compressor` adds more.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compression.base import Compressor
from repro.compression.sparsifiers import TopK

__all__ = ["make_compressor", "available_compressors", "register_compressor", "compressor_traits"]

#: name → (factory, reads its seed, instances carry per-client state)
_FACTORIES: dict[str, tuple[Callable[..., Compressor], bool, bool]] = {}


def register_compressor(
    name: str, factory: Callable[..., Compressor], *, seeded: bool = True, stateful: bool = True
) -> None:
    """Register a new compressor factory under ``name``.

    The factory receives ``(seed)`` as keyword argument and must return a
    fresh, independent compressor instance. ``seeded``: it reads that seed;
    ``stateful``: an instance accumulates per-client state (error-feedback
    residuals; a seeded generator always does). A ``CompressorPool`` shares
    one instance of a stateless compressor among all clients and derives a
    per-client stream only for a seeded one; the defaults are always safe.
    """
    if name in _FACTORIES:
        raise ValueError(f"compressor {name!r} already registered")
    _FACTORIES[name] = (factory, bool(seeded), bool(stateful or seeded))


def available_compressors() -> list[str]:
    """Sorted registered names."""
    return sorted(_FACTORIES)


def _entry(name: str) -> tuple[Callable[..., Compressor], bool, bool]:
    try:
        return _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {available_compressors()}"
        ) from None


def compressor_traits(name: str) -> tuple[bool, bool]:
    """``(seeded, stateful)`` as declared at registration."""
    return _entry(name)[1:]


def make_compressor(name: str, *, seed: int | np.random.Generator = 0) -> Compressor:
    """Instantiate a fresh compressor by registry name."""
    return _entry(name)[0](seed=seed)


# Error feedback and the quantizer are imported by their factories, so a run
# loads only the compressor it selects; names and traits register here.


def _ef(inner: Compressor) -> Compressor:
    from repro.compression.ef import ErrorFeedback

    return ErrorFeedback(inner)


def _qsgd(bits: int, seed: int | np.random.Generator) -> Compressor:
    from repro.compression.quantization import QSGDQuantizer

    return QSGDQuantizer(bits=bits, seed=seed)


register_compressor("topk", lambda seed=0: TopK(), seeded=False, stateful=False)
register_compressor("ef_topk", lambda seed=0: _ef(TopK()), seeded=False)
register_compressor("qsgd8", lambda seed=0: _qsgd(8, seed))
