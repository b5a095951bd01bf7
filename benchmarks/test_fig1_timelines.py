"""Fig. 1 — round timelines under no / uniform / adaptive compression.

Three clients with B1 > B2 > B3. Shape claims: without compression everyone
waits for C3's dense upload; uniform compression shrinks the round but keeps
proportional waiting; BCRS equalizes finish times so per-round waiting is
(near) zero while the round is no longer than uniform compression's.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.core.bcrs import schedule_ratios
from repro.experiments import format_table
from repro.network.cost import LinkSpec, model_bits, sparse_uplink_time, uplink_time

LINKS = [LinkSpec(2.0e6, 0.05), LinkSpec(1.0e6, 0.08), LinkSpec(0.5e6, 0.12)]
VOLUME = model_bits(200_000)
CR = 0.05


def build_timelines():
    dense = np.array([uplink_time(link, VOLUME) for link in LINKS])
    uniform = np.array([sparse_uplink_time(link, VOLUME, CR) for link in LINKS])
    sched = schedule_ratios(LINKS, VOLUME, CR)
    return dense, uniform, sched


def test_fig1_timelines():
    dense, uniform, sched = build_timelines()

    rows = []
    for i in range(3):
        rows.append([
            f"C{i + 1}",
            f"{dense[i]:.2f}s (wait {dense.max() - dense[i]:.2f})",
            f"{uniform[i]:.2f}s (wait {uniform.max() - uniform[i]:.2f})",
            f"{sched.scheduled_times[i]:.2f}s (wait {sched.t_bench - sched.scheduled_times[i]:.2f})",
        ])
    emit(
        "Fig. 1 — per-client uplink time (and waiting time) per round",
        format_table(["client", "no compression", "uniform CR", "BCRS adaptive"], rows),
    )

    # No compression: the straggler dominates the round.
    assert dense.max() == dense[2]
    # Uniform compression shortens the round but waiting persists.
    assert uniform.max() < dense.max()
    assert (uniform.max() - uniform.min()) > 0.1 * uniform.max()
    # Adaptive: round no longer than uniform, waiting ~eliminated for
    # unclipped clients.
    assert sched.t_bench <= uniform.max() * (1 + 1e-9)
    unclipped = (sched.ratios > CR) & (sched.ratios < 1.0)
    waits = sched.t_bench - sched.scheduled_times
    assert np.all(waits[unclipped] < 1e-9)
