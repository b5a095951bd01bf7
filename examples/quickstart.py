#!/usr/bin/env python
"""Quickstart: run BCRS+OPWA against FedAvg/TopK on a small federation.

Builds the paper's setting (10 clients, 50 % participation, Dirichlet
label skew, heterogeneous 1 Mbit/s-class links), runs four algorithms as a
one-axis grid (identical seeds, data and links in every cell), and prints
final accuracy and accumulated communication time — the essence of
Table 2 / Table 3 in one minute on a laptop.

Run:  python examples/quickstart.py [--backend serial|thread|process]
                                    [--workers N] [--rounds N]
                                    [--mode sync|semisync|async]

The backend changes only wall-clock time: seeded results are bit-identical
on every backend (see src/repro/exec/). The mode changes *when* client
work lands on the virtual clock (see src/repro/simtime/): try
``--mode async`` for FedBuff-style buffered aggregation with no round
barrier.
"""

import argparse

from repro.experiments import bench_config, run_grid, summarize_sweep
from repro.fl.config import BACKENDS, MODES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="serial", choices=BACKENDS,
                        help="execution backend for the round's client work")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for thread/process backends")
    parser.add_argument("--mode", default="sync", choices=MODES,
                        help="round protocol on the virtual clock")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()

    # The base is the preset of the method under test, so its tuned α/γ
    # hold in every cell; FedAvg ignores the compression knobs.
    base = bench_config(
        "cifar10",
        "bcrs_opwa",
        beta=0.1,  # severe non-IID, the paper's hard setting
        compression_ratio=0.05,
        rounds=args.rounds,
        backend=args.backend,
        workers=args.workers,
        mode=args.mode,
    )
    print(f"dataset={base.dataset}  clients={base.num_clients}  "
          f"C={base.participation}  beta={base.beta}  rounds={base.rounds}  "
          f"backend={base.backend}  mode={base.mode}\n")

    report = run_grid(base, {"algorithm": ["fedavg", "topk", "bcrs", "bcrs_opwa"]})
    print(summarize_sweep(report))

    results = report.by_axis("algorithm")
    fedavg_t = results["fedavg"].time.actual_total
    bcrs_t = results["bcrs_opwa"].time.actual_total
    print(f"\nBCRS+OPWA used {bcrs_t:.1f}s of uplink vs FedAvg's {fedavg_t:.1f}s "
          f"({fedavg_t / bcrs_t:.1f}x less communication).")


if __name__ == "__main__":
    main()
