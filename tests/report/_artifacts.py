"""Deterministic synthetic artifacts for the report renderer tests.

Everything here is built from fixed literals — no RNG, no clocks — so the
golden test can pin whole pages byte-for-byte.
"""

from __future__ import annotations

from repro.fl.config import ExperimentConfig
from repro.fl.history import EdgeRecord, History, RoundComm, RoundRecord
from repro.network.metrics import RoundTimes
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span
from repro.scenarios import SweepReport, expand_grid


def make_history(
    accs,
    *,
    staleness: bool = False,
    comm: bool = True,
    evaluate: bool = True,
    edges: bool = False,
) -> History:
    """A history with the given accuracy curve and fixed everything else.

    ``edges`` makes it hier-shaped: every round carries two ``EdgeRecord``s,
    the slower one's backhaul taking ``0.5 + 0.5 * round`` virtual seconds.
    """
    h = History()
    for i, acc in enumerate(accs):
        h.append(
            RoundRecord(
                round_index=i,
                selected=(0, 1),
                train_loss=2.0 / (i + 1),
                test_accuracy=(acc if evaluate else None),
                times=RoundTimes(actual=1.0, maximum=1.5, minimum=0.5),
                ratios=(0.2, 0.2),
                weights=(0.5, 0.5),
                singleton_fraction=None,
                train_seconds=0.0,
                compress_seconds=0.0,
                sim_start=float(i) * 2.0,
                sim_end=float(i) * 2.0 + 2.0,
                mean_staleness=(0.5 * i if staleness else None),
                comm=(
                    RoundComm.from_maps(
                        uplink={0: 8_000.0 + 800.0 * i, 1: 16_000.0},
                        downlink={0: 4_000.0, 1: 4_000.0},
                    )
                    if comm
                    else None
                ),
                edge_breakdown=(
                    tuple(
                        EdgeRecord(
                            edge=e, selected=(e,), sub_spans=(1.0,),
                            backhaul_s=(0.25, 0.5 + 0.5 * i)[e],
                            start=float(i) * 2.0, end=float(i) * 2.0 + 2.0,
                        )
                        for e in (0, 1)
                    )
                    if edges
                    else None
                ),
            )
        )
    return h


def tiny_base(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="synth-cifar10", num_train=200, num_test=100, num_clients=4,
        participation=0.5, rounds=2, batch_size=32, algorithm="topk",
        compression_ratio=0.2, eval_every=1, seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_sweep() -> SweepReport:
    """A 2×2 grid with hand-written curves (no simulation involved)."""
    cells = expand_grid(
        tiny_base(), {"gamma": [3.0, 5.0], "include_downlink": [False, True]}
    )
    curves = [(0.2, 0.4), (0.3, 0.5), (0.25, 0.45), (0.1, 0.35)]
    return SweepReport(
        cells=[(spec, make_history(accs)) for spec, accs in zip(cells, curves)],
        executed=3,
        reused=1,
    )


def make_hier_sweep() -> SweepReport:
    """An edge-width sweep: one flat-shaped cell, one hier-shaped cell."""
    cells = expand_grid(tiny_base(mode="hier"), {"num_edges": [1, 2]})
    return SweepReport(
        cells=[
            (cells[0], make_history((0.2, 0.4))),
            (cells[1], make_history((0.3, 0.5), edges=True)),
        ],
        executed=2,
    )


def make_robust_sweep() -> SweepReport:
    """An aggregator × adversary_fraction grid: accuracy falls with the
    byzantine fraction, more slowly under the trimmed mean."""
    cells = expand_grid(
        tiny_base(adversary="sign_flip"),
        {"aggregator": ["mean", "trimmed_mean"], "adversary_fraction": [0.0, 0.15, 0.3]},
    )
    curves = [(0.3, 0.5), (0.2, 0.3), (0.1, 0.15), (0.3, 0.5), (0.25, 0.45), (0.2, 0.4)]
    return SweepReport(
        cells=[(spec, make_history(accs)) for spec, accs in zip(cells, curves)],
        executed=6,
    )


def make_spans() -> list[Span]:
    return [
        Span(name="round", cat="sim", start=0.0, end=1.0, tid=0),
        Span(name="evaluate", cat="sim", start=1.0, end=1.25, tid=0),
        Span(name="client_task", cat="exec", start=0.1, end=0.5, tid=101),
        Span(name="client_task", cat="exec", start=0.5, end=0.9, tid=101),
        Span(name="transport", cat="net", start=0.2, end=0.3, tid=102),
    ]


def make_metrics() -> MetricsRegistry:
    reg = MetricsRegistry()
    rounds = reg.counter("rounds_total")
    cache = reg.gauge("cache_size")
    train = reg.histogram("train_seconds", buckets=(0.25, 1.0))
    for i, (size, obs) in enumerate([(2.0, 0.1), (3.0, 0.6), (3.0, 0.9)]):
        rounds.inc()
        cache.set(size)
        train.observe(obs)
        reg.snapshot(i)
    return reg


MANIFEST = {
    "dataset": "synth-cifar10",
    "algorithm": "topk",
    "mode": "sync",
    "backend": "serial",
    "seed": "3",
    "git": "v0-test",
}
