#!/usr/bin/env python
"""Benchmark the round protocols: wall-clock throughput + virtual
time-to-target-accuracy per mode, written to ``BENCH_modes.json``.

Runs the quickstart-scale config once per mode (identical seeds — the mode
is the only variable), measures

- ``rounds_per_sec``: wall-clock simulator throughput (how fast the
  machine grinds rounds/aggregations), and
- ``virtual_time_to_target``: when the mode first reached the target
  accuracy on the virtual clock (download + compute + upload) — the
  quantity the event scheduler exists to compare,

so the repository's perf trajectory is tracked by an artifact, not
anecdotes. Usage::

    PYTHONPATH=src python scripts/bench_modes.py [--rounds N]
        [--target-acc A] [--backend serial|thread|process] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.experiments.presets import bench_config
from repro.fl.config import BACKENDS
from repro.simtime import make_simulation

#: The three flat protocols (hier at one edge duplicates sync).
PROTOCOL_RACE_MODES = ("sync", "semisync", "async")


def bench_mode(base, mode: str, target: float) -> dict:
    cfg = base.with_(mode=mode)
    t0 = time.perf_counter()
    with make_simulation(cfg) as sim:
        history = sim.run()
    wall = time.perf_counter() - t0
    return {
        "mode": mode,
        "rounds": len(history),
        "wall_seconds": round(wall, 3),
        "rounds_per_sec": round(len(history) / wall, 3),
        "final_accuracy": round(history.final_accuracy(), 4),
        "best_accuracy": round(history.best_accuracy(), 4),
        "virtual_time_total": round(history.records[-1].sim_end, 3),
        "virtual_time_to_target": (
            None
            if (t := history.simtime_to_accuracy(target)) is None
            else round(t, 3)
        ),
        "mean_staleness": round(
            sum(r.mean_staleness or 0.0 for r in history.records) / len(history), 3
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--target-acc", type=float, default=0.25)
    parser.add_argument("--backend", default="serial", choices=BACKENDS)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_modes.json")
    args = parser.parse_args()

    base = bench_config(
        "cifar10",
        "topk",
        compression_ratio=0.1,
        rounds=args.rounds,
        seed=args.seed,
        backend=args.backend,
        workers=args.workers,
    )
    results = [bench_mode(base, mode, args.target_acc) for mode in PROTOCOL_RACE_MODES]
    payload = {
        "config": {
            "dataset": base.dataset,
            "algorithm": base.algorithm,
            "rounds": base.rounds,
            "num_clients": base.num_clients,
            "compression_ratio": base.compression_ratio,
            "target_accuracy": args.target_acc,
            "backend": base.backend,
            "seed": base.seed,
        },
        "modes": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for r in results:
        print(
            f"{r['mode']:>8}: {r['rounds_per_sec']:6.2f} rounds/s wall, "
            f"virtual {r['virtual_time_total']:8.1f}s total, "
            f"to acc>={args.target_acc:g}: {r['virtual_time_to_target']}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
