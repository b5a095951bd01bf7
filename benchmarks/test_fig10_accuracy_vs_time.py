"""Fig. 10 — accuracy vs accumulated communication time (CIFAR-10).

Shape claims: for a fixed accuracy level, BCRS needs far less accumulated
actual communication time than FedAvg (whose x-axis is dominated by dense
straggler uploads); compressed baselines sit between.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table
from repro.fl import run_experiment

ALGS = ["fedavg", "topk", "eftopk", "bcrs"]


@pytest.mark.parametrize("beta,cr", [(0.1, 0.1), (0.1, 0.01), (0.5, 0.1), (0.5, 0.01)])
def test_fig10_accuracy_vs_time(once, beta, cr):
    shape = dict(beta=beta, rounds=50, compression_ratio=cr)
    results = {alg: once(run_experiment, bench_config("cifar10", alg, **shape)) for alg in ALGS}

    rows = []
    for alg in ALGS:
        t, acc = results[alg].accuracy_vs_time()
        # Sample three points along the curve.
        pts = "  ".join(f"({t[i]:.0f}s, {acc[i]:.2f})" for i in np.linspace(0, len(t) - 1, 3).astype(int))
        rows.append([alg, pts, f"{results[alg].time.actual_total:.0f}s"])
    emit(
        f"Fig. 10 — accuracy vs comm time, beta={beta}, CR={cr}",
        format_table(["algorithm", "curve samples", "total comm"], rows),
    )

    # Time axes: compressed algorithms accumulate far less actual time.
    total = {alg: results[alg].time.actual_total for alg in ALGS}
    assert total["bcrs"] < 0.5 * total["fedavg"], total
    assert total["topk"] < 0.5 * total["fedavg"], total

    # At the time BCRS finishes, it has reached an accuracy FedAvg needs much
    # longer to match (the curves' horizontal separation).
    t_b, acc_b = results["bcrs"].accuracy_vs_time()
    t_f, acc_f = results["fedavg"].accuracy_vs_time()
    reached = float(acc_b[-1])
    fed_time = next((tt for tt, aa in zip(t_f, acc_f) if aa >= reached), None)
    if fed_time is not None:
        assert fed_time > t_b[-1], (fed_time, t_b[-1])
