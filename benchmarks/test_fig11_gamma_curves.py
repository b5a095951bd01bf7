"""Fig. 11 — OPWA training curves across enlarge rates γ (CIFAR-10, CR=0.1).

Paper panels: β=0.5 and β=0.1, γ ∈ {3..8} vs FedAvg. Shape claims: every γ
produces a learning curve; the best γ configuration is competitive with
FedAvg at CR=0.1 (the paper shows OPWA overtaking it around round 60).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid
from repro.fl import run_experiment

GAMMAS = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("beta", [0.5, 0.1])
def test_fig11_gamma_curves(once, beta):
    base = bench_config("cifar10", "bcrs_opwa", beta=beta, compression_ratio=0.1)
    results = once(run_grid, base, {"gamma": GAMMAS}).by_axis("gamma")
    fedavg = once(run_experiment, bench_config("cifar10", "fedavg", beta=beta))

    rows = [["fedavg", f"{fedavg.final_accuracy():.4f}", f"{fedavg.best_accuracy():.4f}"]]
    for g in GAMMAS:
        h = results[g]
        rows.append([f"gamma={int(g)}", f"{h.final_accuracy():.4f}", f"{h.best_accuracy():.4f}"])
    emit(
        f"Fig. 11 — OPWA gamma curves, beta={beta}, CR=0.1",
        format_table(["run", "final acc", "best acc"], rows),
    )

    # Every gamma learns.
    for g in GAMMAS:
        _, accs = results[g].accuracy_series()
        assert accs[-1] > accs[0]
    # Best OPWA configuration is competitive with uncompressed FedAvg.
    best = max(results[g].final_accuracy() for g in GAMMAS)
    assert best > fedavg.final_accuracy() - 0.05, (best, fedavg.final_accuracy())
