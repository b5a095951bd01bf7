"""Ablation A1 — the Norm() choice in Eq. 6.

The paper normalizes scheduled ratios before comparing them to data
frequencies but does not specify the normalization; we ship three variants.
This ablation runs BCRS with each and reports the impact; the run must not
be pathologically sensitive to the choice (all variants must learn), with
the sum-normalization (our default) at least as good as using raw ratios.
"""

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid

MODES = ["sum", "max", "none"]


def test_ablation_norm_choice(once):
    base = bench_config("cifar10", "bcrs", beta=0.1, compression_ratio=0.01, rounds=40)
    results = once(run_grid, base, {"norm_mode": MODES}).by_axis("norm_mode")

    rows = [
        [mode, f"{results[mode].final_accuracy():.4f}", f"{results[mode].best_accuracy():.4f}"]
        for mode in MODES
    ]
    emit("Ablation A1 — Eq. 6 Norm() variants (BCRS, beta=0.1, CR=0.01)",
         format_table(["norm mode", "final acc", "best acc"], rows))

    accs = {m: results[m].final_accuracy() for m in MODES}
    for m in MODES:
        assert accs[m] > 0.15, accs  # every variant learns beyond chance
