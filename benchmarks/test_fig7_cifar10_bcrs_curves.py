"""Fig. 7 — CIFAR-10 accuracy-vs-round curves: BCRS vs baselines.

Four panels: β ∈ {0.1, 0.5} × CR ∈ {0.1, 0.01}, algorithms FedAvg / TOPK /
EFTOPK / BCRS. Shape claims: all curves rise; at CR=0.01 TopK converges far
below FedAvg while BCRS converges above TopK.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, run_grid, series_text

ALGS = ["fedavg", "topk", "eftopk", "bcrs"]
DATASET = "cifar10"


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.5, 0.1), (0.1, 0.01), (0.5, 0.01)])
def test_fig7_panel(once, beta, cr):
    base = bench_config(DATASET, "bcrs", beta=beta, compression_ratio=cr)
    results = once(run_grid, base, {"algorithm": ALGS}).by_axis("algorithm")

    for alg in ALGS:
        emit(
            f"Fig. 7 — {DATASET} beta={beta} CR={cr}: {alg}",
            series_text(results[alg], every=10),
        )

    # Curves rise: final beats the first evaluation for every algorithm.
    for alg in ALGS:
        _, accs = results[alg].accuracy_series()
        assert accs[-1] > accs[0], alg
    # Panel-level orderings.
    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    if cr == 0.01:
        assert acc["topk"] < acc["fedavg"], acc
        assert acc["bcrs"] > acc["topk"], acc
