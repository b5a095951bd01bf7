"""The metric catalogue and the small statistics the benchmark reports with.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names:
``BENCHMARK.json`` lists exactly these (a test checks it), an untraced run
prints every end-to-end metric and a traced run every per-layer one.
"""

from __future__ import annotations

import hashlib
import json
import statistics

__all__ = [
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "WORKLOADS",
    "benchmark_spec",
    "history_digest",
    "median",
    "summary",
    "tail_percentile",
]

#: Every layer, outside-in along one round, then the sweep-only ones. Each is
#: named after the repo modules whose public callables bench/layers.py wraps.
LAYERS = (
    "round",
    "sample",
    "plan",
    "dispatch",
    "hydrate",
    "train",
    "compress",
    "mask",
    "aggregate",
    "step",
    "price",
    "evaluate",
    "cell",
    "world",
    "record_io",
)

#: name -> (unit, better, bound as a share of the parent's median). All three
#: are host-side: a simulated statistic (accuracy, virtual time, uplink volume)
#: moves by 10 to 40 % with the seed's world draw, more than a bound may be,
#: and is exact at a fixed seed, which the digest checks; see bench/README.md.
#: Every bound is the widest the contract admits: across ten seeds on the
#: shared 2-core box this was sized on, quartile distances reach 13 % of the
#: median for rounds_per_s and 21 % for peak_rss_mb, and two sets of ten runs
#: put their setup_s medians 6 % apart.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "rounds_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

#: name -> (unit, better). Three per layer, then work rates and ratios
#: measured at the same boundaries, then what the driver sees of itself.
PER_LAYER = {
    **{
        f"{layer}.{field}": (unit, better)
        for layer in LAYERS
        for field, unit, better in (
            ("self_s", "s", "lower"),
            ("calls", "count", "lower"),
            ("share", "fraction", "lower"),
        )
    },
    "compress.coords_per_s": ("1/s", "higher"),
    "compress.kept_entries": ("count", "lower"),
    "mask.coords_per_s": ("1/s", "higher"),
    "aggregate.entries_per_s": ("1/s", "higher"),
    "train.samples_per_s": ("1/s", "higher"),
    "hydrate.miss_share": ("fraction", "lower"),
    "world.hit_share": ("fraction", "higher"),
    "price.flows": ("count", "lower"),
    "round.ms_p50": ("ms", "lower"),
    "round.ms_tail": ("ms", "lower"),
    "round.tail_pct": ("%", "higher"),
    "program.train_s": ("s", "lower"),
    "program.compress_s": ("s", "lower"),
    "sim.final_accuracy": ("fraction", "higher"),
    "sim.uplink_mb": ("MB", "lower"),
    "sim.time_to_target_s": ("s", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead_share": ("fraction", "lower"),
    "driver.warmup_s": ("s", "lower"),
    "driver.cpu_share": ("fraction", "higher"),
}

#: name -> why the workload exists (one line; the long form is in README.md).
WORKLOADS = {
    "paper_sync": (
        "the paper's Sec. 5.1 cell, sync BCRS+OPWA on 10 clients: local training "
        "dominates, the hydration cache always hits, the arena compress banks are used"
    ),
    "fleet_round": (
        "250 of 1,000,000 virtual-shard clients per round: per-client Python at cohort "
        "scale, every hydration lookup a miss, the only workload where memory matters"
    ),
    "sweep_modes": (
        "12 cells, 4 protocol modes x 3 algorithms over one cached world with fair-share "
        "ingress: event-driven and hierarchical loops, allocating compress path, store IO"
    ),
    "wide_kernels": (
        "server and compressor kernels composed at d = 1,000,000 with no training: "
        "Top-K, overlap mask and sparse aggregation carry the cost, train must show nothing"
    ),
}


def median(values) -> float:
    return float(statistics.median(values))


def summary(values) -> dict:
    """min / q25 / median / q75 / max / n of ``values`` (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them; degenerate below 2)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q25, _, q75 = statistics.quantiles(values, n=4)
    else:
        q25 = q75 = values[0]
    return {
        "min": min(values),
        "q25": q25,
        "median": median(values),
        "q75": q75,
        "max": max(values),
        "n": len(values),
    }


def tail_percentile(samples, per_mille=(750, 900, 950, 990, 999)) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile of the ladder that still
    has at least ten samples beyond it; ``(100, max)`` when none has.

    The rule of the choosing-metrics guide: a p99 over 40 samples is the
    maximum under another name. Nearest rank: the value is the smallest
    sample with at least that share of the samples at or below it.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    best = None
    for pm in per_mille:
        rank = -(-pm * n // 1000)
        if n - rank >= 10:
            best = (pm / 10.0, ordered[rank - 1])
    return best if best is not None else (100.0, ordered[-1])


def history_digest(history_dict: dict) -> str:
    """sha256 of a ``history_to_dict`` payload with its two wall-clock fields
    zeroed, as ``repro.testing.goldens.run_trace`` stores goldens — every
    other field counts."""
    records = [
        {**rec, "train_seconds": 0.0, "compress_seconds": 0.0}
        for rec in history_dict["records"]
    ]
    payload = {**history_dict, "records": records}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def benchmark_spec() -> dict:
    """The content of the root ``BENCHMARK.json``, built from the catalogue."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 10,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
