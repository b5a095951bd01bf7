"""Fig. 6 — time breakdown of one FL round.

Paper bars (per round): compress/decompress ~0.3 s, training ~10 s,
uncompressed communication 48.15 s, BCRS communication 1.14 s (CR=0.01) /
9.78 s (CR=0.1). Shape claims: communication dominates an uncompressed round;
BCRS removes most of it, more at CR=0.01 than CR=0.1; compression overhead is
negligible next to the simulated communication it saves.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import bench_config, format_table
from repro.experiments.paper_reference import FIG6_BREAKDOWN
from repro.fl import run_experiment


#: Paper-scale transmitted volume: the paper's ~48 s dense straggler upload at
#: ~1 Mbit/s implies a ~47 Mbit model message; we price rounds at that volume
#: while training the CPU-sized model (see ExperimentConfig.volume_override_bits).
PAPER_VOLUME_BITS = 4.7e7


def breakdown_for(once, cr: float) -> dict[str, float]:
    cfg = bench_config(
        "cifar10",
        "bcrs",
        compression_ratio=cr,
        beta=0.1,
        rounds=10,
        volume_override_bits=PAPER_VOLUME_BITS,
    )
    return once(run_experiment, cfg).mean_breakdown()


@pytest.mark.parametrize("cr", [0.01, 0.1])
def test_fig6_breakdown(once, cr):
    b = breakdown_for(once, cr)
    paper = FIG6_BREAKDOWN[cr]

    rows = [
        ["compress+decompress (wall)", f"{b['compress_s']:.4f}", f"{paper[0]:.2f}"],
        ["local training (wall)", f"{b['train_s']:.4f}", f"{paper[1]:.2f}"],
        ["uncompressed comm (simulated)", f"{b['comm_uncompressed_s']:.2f}", f"{paper[2]:.2f}"],
        ["BCRS comm (simulated)", f"{b['comm_actual_s']:.2f}", f"{paper[3]:.2f}"],
    ]
    emit(
        f"Fig. 6 — average per-round time breakdown, CR={cr}",
        format_table(["phase", "measured (s)", "paper (s)"], rows),
    )

    # Communication dominates the uncompressed round.
    assert b["comm_uncompressed_s"] > b["comm_actual_s"]
    # Compression overhead is negligible next to the communication saved.
    assert b["compress_s"] < 0.1 * (b["comm_uncompressed_s"] - b["comm_actual_s"])


def test_fig6_cr_ordering(once):
    """BCRS round time scales with CR: CR=0.1 rounds cost ~10x CR=0.01 rounds
    (modulo latency), mirroring the paper's 9.78 s vs 1.14 s bars."""
    b001 = breakdown_for(once, 0.01)
    b01 = breakdown_for(once, 0.1)
    assert b01["comm_actual_s"] > 3 * b001["comm_actual_s"]
