"""Experiment harness: paper presets, text reporting, reference numbers.

Multi-run experiments — algorithm comparisons, γ sweeps, mode races,
edge-width sweeps — are grids: :func:`run_grid` (from
:mod:`repro.scenarios`) runs them and :func:`summarize_sweep` prints them.
"""

from repro.experiments.presets import DATASET_NAME_MAP, bench_config, bench_scale, paper_config
from repro.experiments.reporting import (
    format_table,
    series_text,
    summarize_sweep,
    time_to_accuracy_row,
)
from repro.experiments.metrics import accuracy_auc, rounds_speedup, speedup_to_target
from repro.experiments import paper_reference
from repro.scenarios import run_grid

__all__ = [
    "paper_config",
    "bench_config",
    "bench_scale",
    "DATASET_NAME_MAP",
    "run_grid",
    "summarize_sweep",
    "accuracy_auc",
    "speedup_to_target",
    "rounds_speedup",
    "format_table",
    "time_to_accuracy_row",
    "series_text",
    "paper_reference",
]
