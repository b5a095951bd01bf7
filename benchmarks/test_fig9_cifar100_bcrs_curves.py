"""Fig. 9 — CIFAR-100 accuracy-vs-round curves: BCRS vs baselines.

Same panel grid on the 100-class stand-in (crowded label space, low accuracy
ceiling — like real CIFAR-100). Shape claims: curves rise above the 1 %
chance level; severe compression hurts uniform TopK relative to FedAvg.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, run_grid, series_text

ALGS = ["fedavg", "topk", "eftopk", "bcrs"]
DATASET = "cifar100"


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.5, 0.1), (0.1, 0.01), (0.5, 0.01)])
def test_fig9_panel(once, beta, cr):
    base = bench_config(DATASET, "bcrs", beta=beta, compression_ratio=cr)
    results = once(run_grid, base, {"algorithm": ALGS}).by_axis("algorithm")

    for alg in ALGS:
        emit(
            f"Fig. 9 — {DATASET} beta={beta} CR={cr}: {alg}",
            series_text(results[alg], every=10),
        )

    # FedAvg and BCRS learn beyond the 1 % chance level; at CR=0.01 uniform
    # TopK may stay near chance on 100 classes — exactly the collapse the
    # paper's Fig. 9 shows — so it only needs to clear chance itself.
    for alg in ("fedavg", "bcrs"):
        assert results[alg].best_accuracy() > 0.03, alg
    for alg in ("topk", "eftopk"):
        assert results[alg].best_accuracy() >= 0.01, alg
    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    if cr == 0.01:
        assert acc["topk"] < acc["fedavg"], acc
    # BCRS at least competitive with uniform TopK (paper: above, except one
    # outlier cell the paper itself reports at beta=0.1, CR=0.1).
    assert acc["bcrs"] > acc["topk"] - 0.05, acc
