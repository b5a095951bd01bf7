"""``python3 -m bench``: every workload, several runs each, one result file.

    python3 -m bench [--seed S] [--reps N] [--seconds T] [--workloads a,b] [--out PATH]
    python3 -m bench --smoke
    python3 -m bench --compare A.json B.json

Every run is a fresh child process (``bench/run.py``), one at a time, with
the thread pins of :data:`bench.host.PIN_ENV`. Runs are interleaved round-robin
across workloads (run 1 of each, then run 2 ...) so that slow drift of the host
lands on every workload alike; after the ``--reps`` untraced runs comes one
traced run per workload. Each end-to-end metric is reported as the median over
the runs, with min, quartiles, max and n; the result goes to
``bench/out/latest.json`` (``--out`` to keep it), beside the run table
``bench/out/runs.jsonl`` and the per-workload trace files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench import host
from bench.host import OUT_DIR, ROOT
from bench.metrics import END_TO_END, WORKLOADS, summary


def _child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One run in a fresh process; returns its row of the run table."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **host.PIN_ENV},
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} exited with {done.returncode}")
    # The child appended its full row (manifest, episodes, digest, checks) to
    # the run table; its last stdout line holds the same metrics.
    with open(OUT_DIR / "runs.jsonl") as fh:
        row = json.loads(fh.readlines()[-1])
    kind = "traced" if traced else "timed "
    head = f"{workload:13s} seed {seed} {kind}"
    if traced:
        top = sorted(
            ((m["value"], k[: -len(".share")]) for k, m in row["metrics"].items()
             if k.endswith(".share")),
            reverse=True,
        )[:4]
        tail = "  ".join(f"{layer} {value:.0%}" for value, layer in top)
    else:
        tail = "  ".join(f"{k} {m['value']:.5g} {m['unit']}" for k, m in row["metrics"].items())
    print(f"{head} {'ok  ' if row['correct'] else 'FAIL'} {tail}", flush=True)
    return row


def _suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"bench: unknown workloads {unknown}; known: {list(WORKLOADS)}")
    reps, seconds = (1, 0.0) if args.smoke else (args.reps, args.seconds)
    manifest = {**host.manifest(), "seed": args.seed, "reps": reps, "seconds": seconds,
                "smoke": args.smoke, "pin_env": host.PIN_ENV}

    timed = {name: [] for name in names}
    for _ in range(reps):
        for name in names:
            timed[name].append(_child(name, args.seed, seconds, False, args.smoke))
    traced = {name: _child(name, args.seed, seconds, True, args.smoke) for name in names}
    manifest["load_end"] = host.load_average()

    result = {"manifest": manifest, "workloads": {}}
    ok = True
    for name in names:
        rows = timed[name]
        digests = {row["digest"] for row in rows} | {traced[name]["digest"]}
        every = [*rows, traced[name]]
        correct = all(row["correct"] for row in every) and len(digests) == 1
        ok &= correct
        end_to_end = {}
        for metric, (unit, _better, _bound) in END_TO_END.items():
            values = [row["metrics"][metric]["value"] for row in rows]
            end_to_end[metric] = {**summary(values), "unit": unit, "values": values}
        result["workloads"][name] = {
            "correct": correct,
            "attempted": sum(row["attempted"] for row in rows),
            "failed": sum(row["failed"] for row in rows),
            "digest": rows[0]["digest"] if len(digests) == 1 else None,
            "end_to_end": end_to_end,
            "per_layer": traced[name]["metrics"],
            "failed_checks": [c for row in every for c in row["checks"] if not c["ok"]],
        }

    print()
    print(f"{'workload':13s} {'metric':15s} {'median':>10s} {'q25':>10s} {'q75':>10s} unit      n")
    for name, w in result["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:13s} {metric:15s} {s['median']:10.5g} {s['q25']:10.5g} {s['q75']:10.5g} "
                  f"{s['unit']:9s} {s['n']}")
        print(f"{name:13s} {'failed_share':15s} {w['failed']}/{w['attempted']}   "
              f"digest {w['digest']}")
    if not args.smoke:
        out = Path(args.out) if args.out else OUT_DIR / "latest.json"
        out.write_text(json.dumps(result, indent=1))
        print(f"\nwrote {out}")
    print("all checks passed" if ok else "CHECKS FAILED (see bench/out/runs.jsonl)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed work per run")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="result file (default bench/out/latest.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one run + one traced run each, no result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from bench.compare import compare

        return compare(*args.compare)
    if not host.program_present():
        return 2
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main())
