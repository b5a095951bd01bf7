"""Table 4 — OPWA accuracy as a function of the enlarge rate γ.

Paper: γ ∈ {3, 5, 7} across β ∈ {0.1, 0.5} × CR ∈ {0.1, 0.01} on CIFAR-10.
Shape claim: at severe compression (CR=0.01) larger γ within the swept range
helps — the optimum is near or above |S_t| (5 selected clients here), i.e.
γ=5/7 beat γ=3.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid
from repro.experiments.paper_reference import TABLE4

GAMMAS = [3.0, 5.0, 7.0]


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)])
def test_table4_gamma(once, beta, cr):
    base = bench_config("cifar10", "bcrs_opwa", beta=beta, compression_ratio=cr)
    results = once(run_grid, base, {"gamma": GAMMAS}).by_axis("gamma")

    rows = [
        [f"gamma={int(g)}", f"{results[g].final_accuracy():.4f}", f"{TABLE4[(beta, cr)][int(g)]:.4f}"]
        for g in GAMMAS
    ]
    emit(
        f"Table 4 — OPWA gamma sweep, beta={beta}, CR={cr}",
        format_table(["enlarge rate", "measured", "paper"], rows),
    )

    acc = {g: results[g].final_accuracy() for g in GAMMAS}
    # Shape claim: at CR=0.01 the best gamma in the sweep is >= 5 (paper: 7).
    if cr == 0.01:
        best = max(acc, key=acc.get)
        assert best >= 5.0, acc
