"""Ablation A2 — the OPWA required-overlap threshold D.

Algorithm 3 defaults to D=1 (enlarge only parameters retained by a single
client). Raising D enlarges progressively more of the model, converging on a
global learning-rate boost rather than a targeted correction. This ablation
sweeps D and reports accuracy plus how much of the model each D enlarges.
"""


from benchmarks.conftest import emit
from repro.core.opwa import opwa_mask
from repro.experiments import bench_config, format_table, run_grid
from repro.fl import Simulation

DS = [1, 2, 3]


def test_ablation_overlap_threshold(once):
    base = bench_config("cifar10", "bcrs_opwa", beta=0.1, compression_ratio=0.01, rounds=40)
    results = once(run_grid, base, {"required_overlap": DS}).by_axis("required_overlap")

    # Measure the enlarged share for each D on a fresh round's overlap counts.
    sim = Simulation(base)
    sim.run_round()
    shares = {}
    for d in DS:
        mask = opwa_mask(sim.last_overlap.per_index, gamma=base.gamma, required_overlap=d)
        shares[d] = float((mask > 1).mean())

    rows = [
        [f"D={d}", f"{results[d].final_accuracy():.4f}", f"{shares[d]:.2%}"]
        for d in DS
    ]
    emit("Ablation A2 — OPWA threshold D (beta=0.1, CR=0.01)",
         format_table(["threshold", "final acc", "model share enlarged"], rows))

    # Larger D enlarges a (weakly) larger share of parameters.
    assert shares[1] <= shares[2] <= shares[3]
    # All variants learn.
    for d in DS:
        assert results[d].final_accuracy() > 0.2
