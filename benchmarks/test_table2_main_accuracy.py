"""Table 2 — final test accuracy of all five algorithms.

Paper: FedAvg (uncompressed), TOPK, EFTOPK, BCRS, BCRS+OPWA on
CIFAR-10 / SVHN / CIFAR-100 for β ∈ {0.1, 0.5} × CR ∈ {0.1, 0.01}.
Shape claims reproduced here: aggressive uniform compression (CR=0.01)
degrades TopK well below FedAvg; BCRS improves on TopK; BCRS+OPWA recovers
most of the gap (and can exceed FedAvg at CR=0.1).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid
from repro.experiments.paper_reference import TABLE2

ALGS = ["fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa"]
SETTINGS = [(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)]


@pytest.mark.parametrize("dataset", ["cifar10", "svhn", "cifar100"])
@pytest.mark.parametrize("beta,cr", SETTINGS)
def test_table2_cell(once, dataset, beta, cr):
    base = bench_config(dataset, "bcrs_opwa", beta=beta, compression_ratio=cr)
    results = once(run_grid, base, {"algorithm": ALGS}).by_axis("algorithm")

    rows = []
    for alg in ALGS:
        measured = results[alg].final_accuracy()
        paper = TABLE2[dataset][(beta, cr)][alg]
        rows.append([alg, f"{measured:.4f}", f"{paper:.4f}"])
    emit(
        f"Table 2 — {dataset}, beta={beta}, CR={cr}",
        format_table(["algorithm", "measured", "paper"], rows),
    )

    acc = {alg: results[alg].final_accuracy() for alg in ALGS}
    # Shape claim 1: the paper's full method beats plain uniform TopK.
    assert acc["bcrs_opwa"] > acc["topk"], acc
    # Shape claim 2: at CR=0.01 uniform TopK falls clearly below FedAvg.
    if cr == 0.01:
        assert acc["topk"] < acc["fedavg"], acc
    # Shape claim 3: BCRS+OPWA lands within reach of (or above) FedAvg,
    # unlike TopK at severe compression.
    if cr == 0.01:
        assert (acc["fedavg"] - acc["bcrs_opwa"]) < (acc["fedavg"] - acc["topk"]), acc
