"""Experiment harness: paper presets, the paper's reference numbers, and its
shape claims (:mod:`repro.experiments.claims`).

Multi-run experiments — algorithm comparisons, γ sweeps, mode races,
edge-width sweeps — are grids: :func:`run_grid` (from
:mod:`repro.scenarios`) runs them and :func:`summarize_sweep` (from
:mod:`repro.viz.ascii`) prints them.
"""

from repro.experiments.presets import bench_config
from repro.experiments import paper_reference
from repro.scenarios import run_grid
from repro.viz.ascii import format_table, summarize_sweep

__all__ = [
    "bench_config",
    "run_grid",
    "summarize_sweep",
    "format_table",
    "paper_reference",
]
