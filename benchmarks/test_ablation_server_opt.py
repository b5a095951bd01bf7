"""Ablation A5 — server optimizers composed with BCRS+OPWA.

The FedOpt family (the paper's related work [39]) treats the aggregated
update as a pseudo-gradient. This ablation checks that BCRS+OPWA composes
with FedAvgM and FedAdam: all variants learn, and server momentum does not
destroy the OPWA gains.
"""

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table
from repro.fl import run_experiment

# Momentum variants scale the server LR by (1 − m): the momentum sum
# amplifies the step by 1/(1 − m), and OPWA's γ already enlarges sparse
# updates — unscaled m=0.9 visibly diverges (itself a useful datapoint).
VARIANTS = [
    ("plain (Alg. 1)", dict()),
    ("FedAvgM m=0.5", dict(server_momentum=0.5, server_step=0.5)),
    ("FedAvgM m=0.9", dict(server_momentum=0.9, server_step=0.1)),
    ("FedAdam lr=0.03", dict(server_optimizer="adam", server_step=0.03)),
]


def run_all(once):
    out = {}
    for label, overrides in VARIANTS:
        cfg = bench_config(
            "cifar10", "bcrs_opwa", beta=0.1, compression_ratio=0.05, rounds=40, **overrides
        )
        out[label] = once(run_experiment, cfg)
    return out


def test_ablation_server_optimizers(once):
    results = run_all(once)

    rows = [
        [label, f"{h.final_accuracy():.4f}", f"{h.best_accuracy():.4f}"]
        for label, h in results.items()
    ]
    emit("Ablation A5 — server optimizers on BCRS+OPWA (beta=0.1, CR=0.05)",
         format_table(["server optimizer", "final acc", "best acc"], rows))

    for label, h in results.items():
        assert h.final_accuracy() > 0.3, (label, h.final_accuracy())
