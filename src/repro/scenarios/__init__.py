"""Declarative scenarios and parallel sweep orchestration.

The simulator's feature axes — execution backends (:mod:`repro.exec`),
round protocols (:mod:`repro.simtime`), hierarchy (:mod:`repro.hier`),
transport contention (:mod:`repro.network.transport`), compressors — are
orthogonal by construction. This package is the layer that *composes*
them:

- :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec`, a serializable,
  hashable description of one complete experiment, bridging to/from
  :class:`~repro.fl.config.ExperimentConfig`;
- :mod:`~repro.scenarios.registry` — named built-ins exercising
  cross-feature combinations (the source of ``docs/SCENARIOS.md``);
- :mod:`~repro.scenarios.grid` — typed multi-axis grid expansion with
  seed replication;
- :mod:`~repro.scenarios.sweep` — :class:`SweepRunner`: cells fan out
  over serial/process pools with a resumable on-disk
  :class:`~repro.scenarios.store.RunStore`; :func:`run_grid` expands,
  runs and reports in one call;
- :mod:`~repro.scenarios.report` — :class:`SweepReport`: per-cell summary
  rows, best-cell rankings, per-axis marginals, time-to-accuracy frontiers.

CLI: ``python -m repro scenario {list,show,run}`` and
``python -m repro sweep --grid field=a,b,c --parallel N``.
"""

from repro.scenarios.grid import cell_label, expand_grid, parse_axis
from repro.scenarios.registry import (
    REGISTRY,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
)
from repro.scenarios.report import SweepReport
from repro.scenarios.spec import (
    ScenarioSpec,
    coerce_field,
    config_field_names,
    config_overrides,
    config_to_dict,
)
from repro.scenarios.store import RunStore
from repro.scenarios.sweep import SWEEP_EXECUTORS, SweepRunner, run_cell, run_grid

__all__ = [
    "ScenarioSpec",
    "ScenarioRegistry",
    "REGISTRY",
    "register_scenario",
    "get_scenario",
    "coerce_field",
    "config_field_names",
    "config_overrides",
    "config_to_dict",
    "parse_axis",
    "expand_grid",
    "cell_label",
    "RunStore",
    "SweepRunner",
    "SweepReport",
    "SWEEP_EXECUTORS",
    "run_cell",
    "run_grid",
]
