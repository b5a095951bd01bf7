"""Fig. 14 — CIFAR-100: BCRS+OPWA against all baselines.

Shape claims on the 100-class stand-in: OPWA improves over uniform TopK in
every panel and closes most of the FedAvg gap at severe compression.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, run_grid, series_text, summarize_sweep

ALGS = ["fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"]


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)])
def test_fig14_panel(once, beta, cr):
    base = bench_config("cifar100", "bcrs_opwa", beta=beta, compression_ratio=cr)
    report = once(run_grid, base, {"algorithm": ALGS})
    results = report.by_axis("algorithm")

    emit(
        f"Fig. 14 — cifar100 beta={beta} CR={cr}",
        summarize_sweep(report),
    )
    emit(
        f"Fig. 14 — cifar100 beta={beta} CR={cr}: bcrs_opwa curve",
        series_text(results["bcrs_opwa"], every=10),
    )

    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    # OPWA over TopK with a noise margin suited to the low-accuracy regime.
    assert acc["bcrs_opwa"] > acc["topk"] - 0.01, acc
    if cr == 0.01:
        gap_opwa = acc["fedavg"] - acc["bcrs_opwa"]
        gap_topk = acc["fedavg"] - acc["topk"]
        assert gap_opwa < gap_topk, acc
