"""Fig. 15 — SVHN: BCRS+OPWA against all baselines.

Shape claims: OPWA improves over uniform TopK in every panel; at moderate
heterogeneity (β=0.5) all methods score high on the easier dataset, with
compression gaps opening at CR=0.01 — as in the paper's panels.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, run_grid, series_text, summarize_sweep

ALGS = ["fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"]


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)])
def test_fig15_panel(once, beta, cr):
    base = bench_config("svhn", "bcrs_opwa", beta=beta, compression_ratio=cr)
    report = once(run_grid, base, {"algorithm": ALGS})
    results = report.by_axis("algorithm")

    emit(
        f"Fig. 15 — svhn beta={beta} CR={cr}",
        summarize_sweep(report),
    )
    emit(
        f"Fig. 15 — svhn beta={beta} CR={cr}: bcrs_opwa curve",
        series_text(results["bcrs_opwa"], every=10),
    )

    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    assert acc["bcrs_opwa"] > acc["topk"], acc
    if cr == 0.01:
        # Severe compression separates TopK from FedAvg; OPWA narrows it.
        assert acc["topk"] < acc["fedavg"], acc
        assert (acc["fedavg"] - acc["bcrs_opwa"]) < (acc["fedavg"] - acc["topk"]), acc
