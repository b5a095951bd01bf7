"""Fig. 13 — CIFAR-10: BCRS+OPWA against all baselines.

Four panels (β × CR). Shape claims: OPWA roughly doubles TopK/EFTOPK accuracy
at CR=0.01 (paper: "approximately double"); at CR=0.1 OPWA is comparable to
or better than uncompressed FedAvg; BCRS+OPWA ≥ BCRS everywhere.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, run_grid, series_text

ALGS = ["fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"]


@pytest.mark.parametrize("beta,cr", [(0.1, 0.01), (0.1, 0.1), (0.5, 0.1), (0.5, 0.01)])
def test_fig13_panel(once, beta, cr):
    base = bench_config("cifar10", "bcrs_opwa", beta=beta, compression_ratio=cr)
    results = once(run_grid, base, {"algorithm": ALGS}).by_axis("algorithm")

    for alg in ("bcrs_opwa", "topk", "fedavg"):
        emit(
            f"Fig. 13 — cifar10 beta={beta} CR={cr}: {alg}",
            series_text(results[alg], every=10),
        )

    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    # OPWA strictly improves over plain TopK.
    assert acc["bcrs_opwa"] > acc["topk"], acc
    # OPWA improves on BCRS alone (the mask is additive on top of scheduling).
    assert acc["bcrs_opwa"] >= acc["bcrs"] - 0.02, acc
    if cr == 0.01:
        # The paper's headline: OPWA ~doubles TopK accuracy at CR=0.01 and
        # lands within reach of uncompressed FedAvg.
        assert acc["bcrs_opwa"] > 1.3 * acc["topk"], acc
        assert acc["bcrs_opwa"] > acc["fedavg"] - 0.15, acc
