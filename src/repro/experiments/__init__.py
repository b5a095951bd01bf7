"""Experiment harness: paper presets, text reporting, reference numbers.

Multi-run experiments — algorithm comparisons, γ sweeps, mode races,
edge-width sweeps — are grids: :func:`run_grid` (from
:mod:`repro.scenarios`) runs them and :func:`summarize_sweep` prints them.
"""

from repro.experiments.presets import bench_config
from repro.experiments.reporting import format_table, summarize_sweep
from repro.experiments import paper_reference
from repro.scenarios import run_grid

__all__ = [
    "bench_config",
    "run_grid",
    "summarize_sweep",
    "format_table",
    "paper_reference",
]
