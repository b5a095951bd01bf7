"""Ablation A2 — the OPWA required-overlap threshold D.

Algorithm 3 defaults to D=1 (enlarge only parameters retained by a single
client). Raising D enlarges progressively more of the model, converging on a
global learning-rate boost rather than a targeted correction. This ablation
measures how much of the model each D enlarges, on a live round's overlap
counts (no history keeps them); that every D learns is a claim of
:mod:`repro.experiments.claims`.
"""


from benchmarks.conftest import emit
from repro.core.opwa import opwa_mask
from repro.experiments import bench_config, format_table
from repro.fl import Simulation

DS = [1, 2, 3]


def test_ablation_overlap_threshold():
    base = bench_config("cifar10", "bcrs_opwa", beta=0.1, compression_ratio=0.01, rounds=40)
    sim = Simulation(base)
    sim.run_round()
    shares = {}
    for d in DS:
        mask = opwa_mask(sim.last_overlap.per_index, gamma=base.gamma, required_overlap=d)
        shares[d] = float((mask > 1).mean())

    rows = [[f"D={d}", f"{shares[d]:.2%}"] for d in DS]
    emit("Ablation A2 — OPWA threshold D (beta=0.1, CR=0.01)",
         format_table(["threshold", "model share enlarged"], rows))

    # Larger D enlarges a (weakly) larger share of parameters.
    assert shares[1] <= shares[2] <= shares[3]
