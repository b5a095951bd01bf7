"""Fig. 2 — adaptive ratios retain more information on faster links.

Shape claims: CR_i is non-decreasing in bandwidth B_i (for equal latency);
the slowest client keeps the default ratio; communication time never exceeds
the uniform-compression round length.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.core.bcrs import schedule_ratios
from repro.experiments import format_table
from repro.network.cost import LinkSpec, model_bits

VOLUME = model_bits(100_000)
CR = 0.02


def schedule_over_bandwidths():
    bws = np.linspace(0.2e6, 4e6, 12)
    links = [LinkSpec(b, 0.08) for b in bws]
    return bws, schedule_ratios(links, VOLUME, CR)


def test_fig2_monotone_ratios():
    bws, sched = schedule_over_bandwidths()

    rows = [
        [f"{b / 1e6:.2f} Mbit/s", f"{r:.4f}", f"{t:.2f}s"]
        for b, r, t in zip(bws, sched.ratios, sched.scheduled_times)
    ]
    emit(
        "Fig. 2 — scheduled compression ratio vs bandwidth (equal latency)",
        format_table(["bandwidth", "CR_i", "uplink time"], rows),
    )

    # Monotone: more bandwidth, more retained information.
    assert np.all(np.diff(sched.ratios) >= -1e-12)
    # Slowest client anchors at the default ratio.
    assert sched.ratios[0] == min(sched.ratios)
    assert np.isclose(sched.ratios[0], CR)
    # Nobody exceeds the benchmark round length.
    assert np.all(sched.scheduled_times <= sched.t_bench + 1e-9)
