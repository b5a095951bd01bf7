"""Ablation A4 — straggler policies: BCRS adaptation vs deadline dropping.

Two ways to stop waiting for the slowest uplink: BCRS keeps every client and
adapts ratios; a deadline policy drops clients that miss a time quantile.
Shape claims: the deadline policy buys shorter rounds but BCRS converts the
same heterogeneity into *more information* and reaches higher accuracy —
dropping non-IID clients discards exactly the unique data FL exists to use.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid

ALGS = ["topk", "deadline_topk", "bcrs", "bcrs_opwa"]


def test_ablation_deadline_vs_bcrs(once):
    base = bench_config("cifar10", "bcrs_opwa", beta=0.1, rounds=40, compression_ratio=0.05)
    results = once(run_grid, base, {"algorithm": ALGS}).by_axis("algorithm")

    rows = []
    for alg in ALGS:
        h = results[alg]
        rounds, accs = h.accuracy_series()  # AUC: mean accuracy over the run's span
        rows.append([
            alg,
            f"{h.final_accuracy():.4f}",
            f"{np.trapezoid(accs, rounds) / (rounds[-1] - rounds[0]):.4f}",
            f"{h.time.actual_total:.1f}s",
        ])
    emit("Ablation A4 — straggler policies (beta=0.1, CR=0.05)",
         format_table(["policy", "final acc", "AUC", "comm time"], rows))

    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    # Deadline dropping shortens rounds...
    assert results["deadline_topk"].time.actual_total < results["topk"].time.actual_total
    # ...but the paper's adaptive approach wins on accuracy.
    assert acc["bcrs_opwa"] > acc["deadline_topk"], acc
