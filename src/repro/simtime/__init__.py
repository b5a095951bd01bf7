"""Virtual-clock discrete-event scheduling for federated rounds.

The synchronous engine (:mod:`repro.fl.simulation`) runs lock-step rounds:
the slowest selected client sets the pace. This package adds a deterministic
*virtual clock* so the simulator can exploit, not just plot, the paper's
cost model (Eq. 4):

- :mod:`repro.simtime.events` — the span log of per-client train/upload
  intervals every protocol writes;
- :mod:`repro.simtime.profiles` — dispatch pricing: :func:`pipeline_times`
  turns a client's link and training speed (the population's columns) into
  download, compute and upload seconds;
- :mod:`repro.simtime.protocols` — two event-driven training protocols
  whose upload completions come from the transport layer's ingress pipe
  (:mod:`repro.network.transport` — exclusive links or fair-shared server
  ingress): :class:`AsyncSimulation` (FedBuff-style buffered aggregation
  with staleness-weighted updates) and :class:`SemiSyncSimulation`
  (deadline-based rounds where late updates carry over or drop).

Select a protocol with ``ExperimentConfig(mode="sync"|"semisync"|"async")``
and build it via :func:`make_simulation`.
"""

from __future__ import annotations

from repro.simtime.events import ClientSpan, SpanLog
from repro.simtime.profiles import pipeline_times

__all__ = [
    "ClientSpan",
    "SpanLog",
    "pipeline_times",
    "AsyncSimulation",
    "SemiSyncSimulation",
    "make_simulation",
]


def __getattr__(name):
    # The protocols subclass repro.fl.simulation.Simulation, which itself
    # imports repro.simtime.{events,profiles}; importing them lazily keeps
    # ``import repro.simtime`` (and therefore ``import repro.fl.simulation``)
    # acyclic.
    if name in ("AsyncSimulation", "SemiSyncSimulation"):
        from repro.simtime import protocols

        return getattr(protocols, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_simulation(config, obs=None, context=None):
    """Build the simulation class selected by ``config.mode``.

    ``"sync"`` returns the lock-step :class:`~repro.fl.simulation.Simulation`;
    ``"semisync"`` and ``"async"`` return the event-driven protocols;
    ``"hier"`` returns the hierarchical cloud–edge–client protocol
    (:class:`~repro.hier.simulation.HierSimulation`). All share the seeded
    data/model/link construction, record into the same
    :class:`~repro.fl.history.History`, and honor the determinism contract
    (seeded runs bit-identical across execution backends).

    ``obs`` is an optional :class:`repro.obs.Obs` bundle; it only ever
    observes — histories are bit-identical with or without it. ``context``
    is an optional prebuilt :class:`~repro.fl.context.SimulationContext`
    (cross-cell dataset caching) — likewise invisible in the history.
    """
    from repro.fl.simulation import Simulation

    if config.mode == "sync":
        return Simulation(config, obs=obs, context=context)
    if config.mode == "semisync":
        from repro.simtime.protocols import SemiSyncSimulation

        return SemiSyncSimulation(config, obs=obs, context=context)
    if config.mode == "async":
        from repro.simtime.protocols import AsyncSimulation

        return AsyncSimulation(config, obs=obs, context=context)
    if config.mode == "hier":
        from repro.hier.simulation import HierSimulation

        return HierSimulation(config, obs=obs, context=context)
    raise ValueError(f"unknown mode {config.mode!r}")
