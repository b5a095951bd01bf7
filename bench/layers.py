"""Which public callables of the program belong to which layer, and how the
traced run wraps them.

Layers are named after the repo modules whose boundary they sit on. The
wrappers live here, in the benchmark: no file under ``src/`` is touched, and
an untraced run never imports this module.

:func:`install` imports every ``repro.*`` module first, so that every
subclass that overrides a wrapped method exists and every module that
imported a wrapped function by name can be re-bound (found by identity scan
of ``sys.modules``). :func:`remove` puts the identical original objects back.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

__all__ = ["install", "remove"]

def _import_program() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _with_subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _compressor_classes() -> list[type]:
    """The class behind every registered compressor name, and behind each
    ``inner`` compressor an ``ErrorFeedback`` wraps."""
    from repro.compression.registry import available_compressors, make_compressor

    classes: list[type] = []
    for name in available_compressors():
        comp = make_compressor(name)
        while comp is not None:
            if type(comp) not in classes:
                classes.append(type(comp))
            comp = getattr(comp, "inner", None)
    return classes


# ---- work counted at the boundaries -----------------------------------------


def _entries(update) -> int:
    indices = getattr(update, "indices", None)
    return int(indices.size) if indices is not None else int(update.dense_size)


def _count_compress(counts, args, kwargs, result) -> None:
    update = args[1] if len(args) > 1 else kwargs["update"]
    counts["compress.coords"] += int(update.shape[0])
    counts["compress.kept"] += _entries(result)


def _count_mask(counts, args, kwargs, result) -> None:
    counts["mask.coords"] += int(args[0][0].dense_size)


def _count_aggregate(counts, args, kwargs, result) -> None:
    counts["aggregate.entries"] += sum(_entries(u) for u in args[0])


def _count_train(counts, args, kwargs, result) -> None:
    counts["train.samples"] += args[0].num_samples * int(kwargs["epochs"])


def _count_flow(counts, args, kwargs, result) -> None:
    counts["price.flows"] += 1


def _cache_lookup(tracer, layer: str, lookup):
    """Wrap an LRU's lookup method: a span, plus hits and misses read off the
    cache's own ``hits``/``misses`` counters around the call."""

    def traced(cache, key):
        hits, misses = cache.hits, cache.misses
        with tracer.span(layer):
            value = lookup(cache, key)
        tracer.counts[f"{layer}.hits"] += cache.hits - hits
        tracer.counts[f"{layer}.misses"] += cache.misses - misses
        return value

    traced.__wrapped__ = lookup
    return traced


# ---- the table ---------------------------------------------------------------


def _targets(tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute name, replacement)`` for every wrapped callable.

    ``owner`` is a class (methods) or a module (functions).
    """
    from repro.core import aggregation, opwa, overlap, server_opt
    from repro.exec.base import ExecutionBackend
    from repro.fl import algorithms, client, context, sampler, simulation
    from repro.io import history_io
    from repro.network import transport
    from repro.population import hydration
    from repro.robust import aggregators
    from repro.scenarios import store, sweep
    from repro.simtime import profiles

    out: list[tuple[object, str, object]] = []

    def method(layer, cls, name, work=None, subclasses=False):
        for c in _with_subclasses(cls) if subclasses else [cls]:
            raw = c.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(layer, raw.__func__, work))
            else:
                wrapped = tracer.wrap(layer, raw, work)
            out.append((c, name, wrapped))

    def function(layer, module, name, work=None):
        out.append((module, name, tracer.wrap(layer, getattr(module, name), work)))

    method("round", simulation.Simulation, "run_round", subclasses=True)
    method("sample", sampler.UniformSampler, "sample")
    method("plan", algorithms.Algorithm, "plan", subclasses=True)
    method("dispatch", ExecutionBackend, "run_round", subclasses=True)
    out.append(
        (
            hydration.ClientPool,
            "__getitem__",
            _cache_lookup(tracer, "hydrate", hydration.ClientPool.__getitem__),
        )
    )
    method("hydrate", hydration.CompressorPool, "__getitem__")
    method("train", client.Client, "local_train", _count_train)
    for cls in _compressor_classes():
        method("compress", cls, "compress", _count_compress)
    function("mask", overlap, "overlap_distribution", _count_mask)
    function("mask", opwa, "opwa_mask_from_updates", _count_mask)
    function("aggregate", aggregators, "robust_aggregate", _count_aggregate)
    function("aggregate", aggregation, "weighted_sparse_sum", _count_aggregate)
    method("step", server_opt.ServerOptimizer, "step", subclasses=True)
    function("price", profiles, "pipeline_times", _count_flow)
    method("price", transport.Transport, "uplink_seconds", _count_flow)
    method("price", transport.Transport, "resolve_uploads")
    for name in ("admit", "pop_next", "pop_until", "drain", "cancel"):
        method("price", transport.IngressPipe, name)
    method("price", transport.Payload, "from_update")
    method("evaluate", simulation.Simulation, "evaluate")
    function("cell", sweep, "run_cell")
    out.append(
        (
            context.WorldCache,
            "get",
            _cache_lookup(tracer, "world", context.WorldCache.get),
        )
    )
    function("record_io", history_io, "history_to_dict")
    function("record_io", history_io, "history_from_dict")
    method("record_io", store.RunStore, "save")
    return out


def install(tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer's callables; returns what :func:`remove` needs."""
    _import_program()
    undo: list[tuple[object, str, object]] = []
    program = [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
    for owner, name, replacement in _targets(tracer):
        if isinstance(owner, type):
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
            continue
        original = getattr(owner, name)
        for module in program:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, replacement)
    return undo


def remove(undo) -> None:
    """Put back exactly the objects :func:`install` replaced."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
