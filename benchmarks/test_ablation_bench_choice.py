"""Ablation A3 — BCRS benchmark rule: slowest client vs median client.

Algorithm 2 anchors the round at the *slowest* client's default-ratio time.
A median benchmark shortens rounds (clients slower than the median keep CR*
and simply finish late... except they don't: the round still waits for them
at CR*, so actual time matches the max rule) but schedules less extra data
for fast clients. This ablation quantifies the trade-off.
"""

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid

RULES = ["max", "median"]


def test_ablation_benchmark_rule(once):
    base = bench_config("cifar10", "bcrs", beta=0.1, compression_ratio=0.01, rounds=40)
    results = once(run_grid, base, {"benchmark": RULES}).by_axis("benchmark")

    rows = []
    for rule in RULES:
        h = results[rule]
        mean_ratio = sum(sum(r.ratios) / len(r.ratios) for r in h.records) / len(h.records)
        rows.append([
            rule,
            f"{h.final_accuracy():.4f}",
            f"{h.time.actual_total:.1f}s",
            f"{mean_ratio:.4f}",
        ])
    emit("Ablation A3 — BCRS benchmark rule (beta=0.1, CR=0.01)",
         format_table(["rule", "final acc", "comm time", "mean realized CR"], rows))

    # The max rule schedules at least as much data per round as the median
    # rule (its benchmark window is the widest).
    def mean_cr(h):
        return sum(sum(r.ratios) / len(r.ratios) for r in h.records) / len(h.records)

    assert mean_cr(results["max"]) >= mean_cr(results["median"]) - 1e-9
    for rule in RULES:
        assert results[rule].final_accuracy() > 0.15
