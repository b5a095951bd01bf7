"""Fig. 12 — optimal γ grows with the federation size (N=16, N=20, C=0.5).

Paper: with more selected clients, rarely-retained parameters are diluted by
a larger divisor, so the best enlarge rate moves up roughly in proportion to
|S_t|. Shape claims: OPWA beats uniform TopK at every N, and the best γ in
the sweep is at least |S_t|/2 (small γ is never optimal at CR=0.01).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table, run_grid
from repro.fl import run_experiment

GAMMAS = [2.0, 5.0, 8.0, 11.0, 14.0]


@pytest.mark.parametrize("num_clients", [16, 20])
def test_fig12_gamma_scaling(once, num_clients):
    shape = dict(beta=0.1, compression_ratio=0.01, num_clients=num_clients, num_train=1600)
    base = bench_config("cifar10", "bcrs_opwa", **shape)
    results = once(run_grid, base, {"gamma": GAMMAS}).by_axis("gamma")
    topk = once(run_experiment, bench_config("cifar10", "topk", **shape))

    rows = [["topk", f"{topk.final_accuracy():.4f}"]]
    rows += [[f"gamma={int(g)}", f"{results[g].final_accuracy():.4f}"] for g in GAMMAS]
    emit(
        f"Fig. 12 — gamma selection at N={num_clients} (|S_t|={base.clients_per_round})",
        format_table(["run", "final acc"], rows),
    )

    acc = {g: results[g].final_accuracy() for g in GAMMAS}
    best_gamma = max(acc, key=acc.get)
    selected = base.clients_per_round
    # Best OPWA beats uniform TopK.
    assert max(acc.values()) > topk.final_accuracy(), (acc, topk.final_accuracy())
    # The optimum is not at the smallest gamma (dilution needs compensating).
    assert best_gamma >= selected / 2, (best_gamma, selected)
