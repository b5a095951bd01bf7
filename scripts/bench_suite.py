#!/usr/bin/env python
"""The consolidated benchmark suite: one artifact, one regression gate.

Runs every benchmark family behind one shared schema — the four standalone
scripts (``bench_modes.py``, ``bench_hier.py``, ``bench_transport.py``,
``bench_fleet.py``) remain usable for deep dives; this suite imports their
measurement functions so the numbers agree — plus an observability section
measuring the null-tracer fast path. Output is ``BENCH_suite.json``::

    {
      "schema": 1,
      "benchmarks": [
        {"name": "modes.sync.rounds_per_sec", "value": 3.1,
         "unit": "rounds/s", "direction": "higher", "gate": true},
        ...
      ],
      "details": { ...full per-family payloads... }
    }

``direction`` says which way is better; entries with ``"gate": true``
participate in the CI regression check::

    PYTHONPATH=src python scripts/bench_suite.py --quick \\
        --check benchmarks/BENCH_suite_baseline.json

which exits 1 if any gated metric regressed more than ``--tolerance``
(default 0.20 = 20%) against the committed baseline. Refresh the baseline
on a quiet machine with ``--update-baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS_DIR))

import bench_fleet  # noqa: E402
import bench_hier  # noqa: E402
import bench_modes  # noqa: E402
import bench_transport  # noqa: E402

from repro.experiments.presets import bench_config  # noqa: E402
from repro.obs import NULL_TRACER, Obs, Tracer, MetricsRegistry  # noqa: E402
from repro.simtime import make_simulation  # noqa: E402


def _bench(name: str, value, unit: str, direction: str, *, gate: bool = False) -> dict:
    return {
        "name": name,
        "value": value,
        "unit": unit,
        "direction": direction,
        "gate": gate,
    }


# ------------------------------------------------------------------ sections


def section_modes(quick: bool, seed: int) -> tuple[list[dict], dict]:
    rounds = 6 if quick else 20
    base = bench_config(
        "cifar10", "topk", compression_ratio=0.1, rounds=rounds, seed=seed
    )
    rows = [bench_modes.bench_mode(base, mode, 0.25) for mode in bench_modes.PROTOCOL_RACE_MODES]
    benchmarks = [
        _bench(
            f"modes.{r['mode']}.rounds_per_sec",
            r["rounds_per_sec"],
            "rounds/s",
            "higher",
            gate=(r["mode"] == "sync"),
        )
        for r in rows
    ]
    return benchmarks, {"rounds": rounds, "modes": rows}


def section_hier(quick: bool, seed: int) -> tuple[list[dict], dict]:
    rounds = 4 if quick else 12
    edges = (1, 4) if quick else (1, 4, 16)
    base = bench_config(
        "cifar10",
        "bcrs_opwa",
        compression_ratio=0.1,
        rounds=rounds,
        num_clients=32,
        seed=seed,
        backhaul_bandwidth_mbps=100.0,
        backhaul_latency_s=0.01,
    )
    rows = [bench_hier.bench_edges(base, e, 0.25) for e in edges]
    benchmarks = [
        _bench(
            f"hier.edges{r['num_edges']}.rounds_per_sec",
            r["rounds_per_sec"],
            "rounds/s",
            "higher",
        )
        for r in rows
    ]
    return benchmarks, {"rounds": rounds, "edge_sweep": rows}


def section_transport(quick: bool, seed: int) -> tuple[list[dict], dict]:
    pricing = bench_transport.bench_pricing(50_000 if quick else 200_000)
    waterfill = bench_transport.bench_waterfill(
        batches=50 if quick else 200, flows_per_batch=50
    )
    base = bench_config(
        "cifar10",
        "topk",
        compression_ratio=0.1,
        rounds=4 if quick else 10,
        num_clients=32,
        seed=seed,
    )
    exclusive = bench_transport.bench_rounds(base, "none", None)
    fair = bench_transport.bench_rounds(base, "fair", 2.0)
    benchmarks = [
        _bench(
            "transport.pricing.payloads_per_sec",
            pricing["payloads_per_sec"],
            "payloads/s",
            "higher",
            gate=True,
        ),
        _bench(
            "transport.waterfill.flows_per_sec",
            waterfill["flows_per_sec"],
            "flows/s",
            "higher",
            gate=True,
        ),
        _bench(
            "transport.fair.rounds_per_sec",
            fair["rounds_per_sec"],
            "rounds/s",
            "higher",
        ),
    ]
    details = {
        "pricing": pricing,
        "waterfill": waterfill,
        "round_race": [exclusive, fair],
    }
    return benchmarks, details


def section_fleet(quick: bool, seed: int) -> tuple[list[dict], dict]:
    fleets = (100_000,) if quick else (100_000, 1_000_000)
    rows = [bench_fleet.bench_fleet(n, 64, seed, run_round=False) for n in fleets]
    benchmarks = []
    for r in rows:
        label = f"{r['num_clients'] // 1000}k"
        benchmarks.append(
            _bench(
                f"fleet.construct_{label}.seconds",
                r["construct_seconds"],
                "s",
                "lower",
                gate=(r["num_clients"] == fleets[0]),
            )
        )
        benchmarks.append(
            _bench(f"fleet.construct_{label}.peak_mb", r["peak_mb"], "MB", "lower")
        )
    return benchmarks, {"fleets": rows}


def section_obs(quick: bool, seed: int) -> tuple[list[dict], dict]:
    """The null-tracer contract: disabled instrumentation must be free.

    Two measurements: the micro cost of one disabled ``span()`` round-trip
    (the hot-loop unit every instrumentation site pays when tracing is
    off), and a seeded run traced vs untraced — the end-to-end overhead of
    *live* tracing, with the untraced run exercising exactly the null path
    the determinism contract ships by default.
    """
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        with NULL_TRACER.span("x", cat="bench"):
            pass
    null_ns = (time.perf_counter() - t0) / n * 1e9

    rounds = 4 if quick else 10
    cfg = bench_config(
        "cifar10", "topk", compression_ratio=0.1, rounds=rounds, seed=seed
    )
    t0 = time.perf_counter()
    with make_simulation(cfg) as sim:
        sim.run()
    wall_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    with make_simulation(cfg, obs=Obs(Tracer(), MetricsRegistry())) as sim:
        sim.run()
    wall_on = time.perf_counter() - t0
    overhead_pct = (wall_on - wall_off) / wall_off * 100.0

    benchmarks = [
        _bench("obs.null_span.ns_per_call", round(null_ns, 1), "ns", "lower", gate=True),
        _bench(
            "obs.tracing_on.overhead_pct", round(overhead_pct, 2), "%", "lower"
        ),
    ]
    details = {
        "null_span_calls": n,
        "null_span_ns": round(null_ns, 1),
        "rounds": rounds,
        "wall_untraced_s": round(wall_off, 3),
        "wall_traced_s": round(wall_on, 3),
        "tracing_overhead_pct": round(overhead_pct, 2),
    }
    return benchmarks, details


def section_sweep(quick: bool, seed: int) -> tuple[list[dict], dict]:
    """Sweep throughput over a persistent, world-cached process pool.

    A 12-cell same-dataset grid (one world, twelve ``alpha`` values) runs
    twice in one persistent-pool runner: the first pass populates each
    forked worker's :data:`repro.scenarios.sweep.WORLD_CACHE`, the second —
    the measured one — is the steady-state regime of iterative sweep work
    (resumes, refinements, repeated grids over one dataset).
    """
    import multiprocessing as mp
    import os

    from repro.fl.config import ExperimentConfig
    from repro.scenarios.grid import expand_grid
    from repro.scenarios.sweep import SweepRunner

    base = ExperimentConfig(
        dataset="synth-cifar10",
        model="mlp",
        num_train=8_000 if quick else 16_000,
        num_test=1_000 if quick else 2_000,
        num_clients=32,
        participation=0.25,
        rounds=1,
        seed=seed,
        algorithm="topk",
        compression_ratio=0.05,
    )
    specs = expand_grid(base, {"alpha": [round(0.1 + 0.05 * i, 2) for i in range(12)]})
    workers = max(2, min(4, (os.cpu_count() or 2) - 1))
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover (non-POSIX)
        return [], {"skipped": "fork unavailable"}
    with SweepRunner(specs, parallel=workers, executor="process") as runner:
        runner.run()  # warm the workers' world caches
        t0 = time.perf_counter()
        runner.run()
        warm_s = time.perf_counter() - t0
    cells_per_sec = len(specs) / warm_s
    benchmarks = [
        _bench(
            "sweep.cells_per_sec",
            round(cells_per_sec, 2),
            "cells/s",
            "higher",
            gate=True,
        ),
    ]
    details = {
        "cells": len(specs),
        "workers": workers,
        "num_train": base.num_train,
        "warm_sweep_seconds": round(warm_s, 3),
        "cells_per_sec": round(cells_per_sec, 2),
    }
    return benchmarks, details


def section_agg(quick: bool, seed: int) -> tuple[list[dict], dict]:
    """Aggregation throughput through the arena: plain mean and defenses.

    Two measurements. ``agg.sparse_sum_throughput`` is
    :func:`~repro.core.aggregation.weighted_sparse_sum` over a realistic
    round shape (many Top-K updates into one wide vector), arena path —
    retained entries reduced per second into the arena's reused
    accumulator, so this tracks the per-update scatter-add cost.
    ``agg.robust_throughput`` is the order-statistic defenses
    (:func:`~repro.robust.aggregators.robust_aggregate`) at a
    million-coordinate model: the cohort densifies into the arena's row
    matrix and reduces per coordinate, so the unit is dense cells per
    second and the details record how many multiples of the plain mean a
    robust round costs.
    """
    import numpy as np

    from repro.compression.base import SparseUpdate
    from repro.core.aggregation import weighted_sparse_sum
    from repro.core.arena import AggregationArena
    from repro.robust.aggregators import robust_aggregate

    d = 500_000
    n_updates = 32
    k = 5_000
    reps = 20 if quick else 100
    rng = np.random.default_rng(seed)
    updates = []
    for _ in range(n_updates):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        val = rng.standard_normal(k).astype(np.float32)
        updates.append(SparseUpdate(dense_size=d, indices=idx, values=val))
    weights = rng.random(n_updates) + 0.5
    arena = AggregationArena(d)
    weighted_sparse_sum(updates, weights, arena=arena)  # warm buffers
    t0 = time.perf_counter()
    for _ in range(reps):
        weighted_sparse_sum(updates, weights, arena=arena)
    wall = time.perf_counter() - t0
    entries_per_sec = reps * n_updates * k / wall
    benchmarks = [
        _bench(
            "agg.sparse_sum_throughput",
            round(entries_per_sec / 1e6, 2),
            "Mentries/s",
            "higher",
            gate=True,
        ),
    ]
    details = {
        "dense_size": d,
        "updates": n_updates,
        "k": k,
        "reps": reps,
        "wall_seconds": round(wall, 4),
        "entries_per_sec": round(entries_per_sec),
    }

    # Robust defenses at d=1M: an 8-client cohort of 5%-dense Top-K
    # updates (the (8, 1M) float64 row matrix stays at 64 MB in the
    # arena). Walls cover densify + reduce, i.e. the full extra cost a
    # robust round pays over the fused sparse mean.
    d_r, n_r, k_r = 1_000_000, 8, 50_000
    reps_r = 3 if quick else 10
    r_updates = []
    for _ in range(n_r):
        idx = np.sort(rng.choice(d_r, size=k_r, replace=False)).astype(np.int64)
        val = rng.standard_normal(k_r).astype(np.float32)
        r_updates.append(SparseUpdate(dense_size=d_r, indices=idx, values=val))
    r_weights = np.full(n_r, 1.0 / n_r)
    r_arena = AggregationArena(d_r)
    walls: dict[str, float] = {}
    for rule in ("mean", "trimmed_mean", "median"):
        robust_aggregate(
            r_updates, r_weights, aggregator=rule, trim_beta=0.25, arena=r_arena
        )  # warm rows + accumulator
        t0 = time.perf_counter()
        for _ in range(reps_r):
            robust_aggregate(
                r_updates, r_weights, aggregator=rule, trim_beta=0.25, arena=r_arena
            )
        walls[rule] = time.perf_counter() - t0
    cells_per_sec = {r: reps_r * n_r * d_r / w for r, w in walls.items()}
    benchmarks.append(
        _bench(
            "agg.robust_throughput",
            round(cells_per_sec["median"] / 1e6, 2),
            "Mcells/s",
            "higher",
            gate=True,
        )
    )
    benchmarks.append(
        _bench(
            "agg.robust.trimmed_mean_throughput",
            round(cells_per_sec["trimmed_mean"] / 1e6, 2),
            "Mcells/s",
            "higher",
        )
    )
    details["robust"] = {
        "dense_size": d_r,
        "updates": n_r,
        "k": k_r,
        "reps": reps_r,
        "wall_seconds": {r: round(w, 4) for r, w in walls.items()},
        "cells_per_sec": {r: round(v) for r, v in cells_per_sec.items()},
        "slowdown_vs_mean": {
            r: round(walls[r] / walls["mean"], 2)
            for r in ("trimmed_mean", "median")
        },
    }
    return benchmarks, details


SECTIONS = {
    "modes": section_modes,
    "hier": section_hier,
    "transport": section_transport,
    "fleet": section_fleet,
    "obs": section_obs,
    "sweep": section_sweep,
    "agg": section_agg,
}


# ---------------------------------------------------------------------- gate


def check_regressions(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Gated metrics worse than ``tolerance`` (fraction) vs baseline."""
    base_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    failures = []
    for bench in current["benchmarks"]:
        if not bench.get("gate"):
            continue
        ref = base_by_name.get(bench["name"])
        if ref is None or not isinstance(ref.get("value"), (int, float)):
            continue
        cur, base = bench["value"], ref["value"]
        if not isinstance(cur, (int, float)) or base == 0:
            continue
        if bench["direction"] == "higher":
            regression = (base - cur) / abs(base)
        else:
            regression = (cur - base) / abs(base)
        if regression > tolerance:
            failures.append(
                f"{bench['name']}: {cur:g} {bench['unit']} vs baseline {base:g} "
                f"({regression * 100:.1f}% worse, tolerance {tolerance * 100:.0f}%)"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sections", default=",".join(SECTIONS),
        help=f"comma-separated subset of: {', '.join(SECTIONS)}",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized runs (fewer rounds, smaller fleets)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_suite.json")
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare gated metrics against a baseline JSON; exit 1 on "
             "regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression for gated metrics (default 0.20)",
    )
    parser.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="also write the result to PATH (the committed baseline)",
    )
    args = parser.parse_args()

    wanted = [s.strip() for s in args.sections.split(",") if s.strip()]
    unknown = [s for s in wanted if s not in SECTIONS]
    if unknown:
        print(f"unknown sections: {unknown}", file=sys.stderr)
        return 2

    benchmarks: list[dict] = []
    details: dict = {}
    for name in wanted:
        t0 = time.perf_counter()
        section_benchmarks, section_details = SECTIONS[name](args.quick, args.seed)
        benchmarks.extend(section_benchmarks)
        details[name] = section_details
        print(f"[{name}] done in {time.perf_counter() - t0:.1f}s")

    payload = {
        "schema": 1,
        "quick": bool(args.quick),
        "seed": args.seed,
        "benchmarks": benchmarks,
        "details": details,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.update_baseline:
        Path(args.update_baseline).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.update_baseline}")

    for b in benchmarks:
        flag = " [gate]" if b.get("gate") else ""
        print(f"  {b['name']:<40} {b['value']:>12} {b['unit']}{flag}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_regressions(payload, baseline, args.tolerance)
        if failures:
            print("\nREGRESSIONS vs " + args.check, file=sys.stderr)
            for f in failures:
                print("  " + f, file=sys.stderr)
            return 1
        print(f"\nno gated regressions vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
