"""Fig. 4 — distribution of the degree of overlap of retained parameters.

Paper: histograms over frequency-of-occurrence 1..5 for β ∈ {0.1, 0.5} ×
CR ∈ {0.01, 0.1}; ~87–88 % singletons at CR=0.01, ~59–61 % at CR=0.1.
Shape claims: singletons dominate, more severely at CR=0.01 than CR=0.1, and
the histogram is monotonically decreasing in the overlap degree.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table
from repro.experiments.paper_reference import FIG4_SINGLETON_FRACTIONS
from repro.fl import Simulation


def round_distribution(beta: float, cr: float):
    cfg = bench_config("cifar10", "topk", beta=beta, compression_ratio=cr, rounds=3)
    sim = Simulation(cfg)
    sim.run()
    return sim.last_overlap


@pytest.mark.parametrize("beta", [0.1, 0.5])
def test_fig4_overlap_histograms(beta):
    dist_001 = round_distribution(beta, 0.01)
    dist_01 = round_distribution(beta, 0.1)

    for cr, dist in [(0.01, dist_001), (0.1, dist_01)]:
        rows = [
            [str(f + 1), str(int(c)), f"{frac:.2%}"]
            for f, (c, frac) in enumerate(zip(dist.counts, dist.fractions()))
        ]
        paper = FIG4_SINGLETON_FRACTIONS[(beta, cr)]
        emit(
            f"Fig. 4 — overlap distribution, beta={beta}, CR={cr} "
            f"(singletons: measured {dist.singleton_fraction():.2%}, paper {paper:.2%})",
            format_table(["degree", "#params", "share"], rows),
        )

    # Shape claim 1: singleton-dominated at both compression levels.
    assert dist_001.singleton_fraction() > 0.5
    # Shape claim 2: severity grows with compression (0.01 ≥ 0.1 case).
    assert dist_001.singleton_fraction() > dist_01.singleton_fraction()
    # Shape claim 3: histogram decreasing in overlap degree (Fig. 4 panels).
    assert np.all(np.diff(dist_001.counts.astype(float)) <= 0)
