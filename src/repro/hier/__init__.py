"""Hierarchical cloud–edge–client federation.

- :mod:`repro.hier.topology` — the hierarchy as draws beside the population
  columns: :func:`assign_edges` (one sorted int64 client-id array per edge)
  and :func:`sample_backhaul_links` (one edge↔cloud link per edge, ``None``
  for a free tier);
- :mod:`repro.hier.simulation` — :class:`HierSimulation`: K₁ client↔edge
  sub-rounds per cloud round, per-edge BCRS/OPWA aggregation, backhaul
  uploads priced on the virtual clock, two-level (edge then cloud) FedAvg.

Select with ``ExperimentConfig(mode="hier", num_edges=...)`` and build via
:func:`repro.simtime.make_simulation`. The defaults (one edge, one
sub-round, free backhaul) reproduce the flat protocol bit-for-bit.
"""

from __future__ import annotations

from repro.hier.topology import assign_edges, sample_backhaul_links

__all__ = ["assign_edges", "sample_backhaul_links", "HierSimulation"]


def __getattr__(name):
    # HierSimulation subclasses repro.fl.simulation.Simulation; lazy import
    # keeps ``import repro.hier`` cheap and acyclic (same pattern as
    # repro.simtime's protocol classes).
    if name == "HierSimulation":
        from repro.hier.simulation import HierSimulation

        return HierSimulation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
