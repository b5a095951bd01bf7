"""One measured run of one workload — the command ``BENCHMARK.json`` names.

    python3 bench/run.py --workload paper_sync --seed 0 --seconds 10 --trace 0

Prints every metric by name with its unit, the correctness checks, and as the
last line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. Exits 2 without a result
when the program under ``src/`` is not there to measure.

Only the standard library is imported before the environment is pinned:
BLAS reads its thread count when NumPy is first imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _pin_environment(pins: dict) -> None:
    """Re-exec once with one BLAS/OpenMP thread and a fixed hash seed."""
    if any(os.environ.get(name) != value for name, value in pins.items()):
        os.environ.update(pins)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def main(argv=None) -> int:
    from bench import host
    from bench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per run; episodes repeat until it is done")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, all checks on (for the harness tests)")
    args = parser.parse_args(argv)

    if not host.program_present():
        return 2
    _pin_environment(host.PIN_ENV)
    sys.path.insert(0, str(host.ROOT / "src"))

    from bench import harness

    row, episodes = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(harness.report(row, episodes))
    return 0


if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself: swap it for the repo root
    # so that `bench` is a package and its modules cannot shadow others.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    sys.exit(main())
