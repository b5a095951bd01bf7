"""Multi-tier topology: cloud → edge aggregators → clients.

Production FL deployments rarely talk last-mile links directly into a
datacenter: clients attach to an *edge aggregator* (base station, campus
gateway, regional PoP) over heterogeneous last-mile links, and the edges
reach the cloud over a much fatter — but not free — backhaul. The hierarchy
is two draws beside the population's columns, which already hold every
client's last-mile (client↔edge) link:

- :func:`assign_edges` — which clients each edge serves, one sorted int64
  id array per edge;
- :func:`sample_backhaul_links` — one edge↔cloud link per edge, drawn
  lognormally around a configured median, or ``None`` for a *free* backhaul
  (zero transfer time — the degenerate configuration under which the
  hierarchical protocol reduces exactly to the flat one).
"""

from __future__ import annotations

import numpy as np

from repro.network.cost import LinkSpec
from repro.utils.rng import as_generator

__all__ = ["assign_edges", "sample_backhaul_links"]

MBIT = 1e6  # bits per Mbit


def assign_edges(
    num_clients: int,
    num_edges: int,
    mode: str = "contiguous",
    *,
    bandwidth_bps: np.ndarray | None = None,
    seed: int | np.random.Generator = 0,
) -> list[np.ndarray]:
    """Partition client ids into ``num_edges`` non-empty groups.

    - ``"contiguous"``: ids split into consecutive chunks (deterministic,
      the degenerate-friendly default);
    - ``"random"``: a seeded permutation split into chunks — models
      geography-independent placement;
    - ``"bandwidth"``: clients sorted by last-mile bandwidth then chunked,
      so each edge serves a homogeneous bandwidth class (requires the
      ``bandwidth_bps`` column) — the placement that maximizes what per-edge
      BCRS can recover, since each group's benchmark client is close to its
      peers.

    Each group is an int64 array of client ids, sorted.
    """
    if not 1 <= num_edges <= num_clients:
        raise ValueError(
            f"need 1 <= num_edges <= num_clients, got {num_edges} of {num_clients}"
        )
    if mode == "contiguous":
        order = np.arange(num_clients, dtype=np.int64)
    elif mode == "random":
        order = as_generator(seed).permutation(num_clients)
    elif mode == "bandwidth":
        if bandwidth_bps is None:
            raise ValueError("edge_assignment='bandwidth' needs the clients' bandwidth_bps")
        if len(bandwidth_bps) != num_clients:
            raise ValueError(f"{len(bandwidth_bps)} bandwidths for {num_clients} clients")
        # Stable sort keeps equal-bandwidth ties in id order (deterministic).
        order = np.argsort(bandwidth_bps, kind="stable")
    else:
        raise ValueError(f"unknown edge assignment {mode!r}")
    return [np.sort(chunk) for chunk in np.array_split(order, num_edges)]


def sample_backhaul_links(
    num_edges: int,
    *,
    bandwidth_mbps: float | None,
    latency_s: float = 0.0,
    heterogeneity: float = 0.0,
    seed: int | np.random.Generator = 0,
) -> tuple[LinkSpec | None, ...]:
    """Draw one edge↔cloud link per edge (``None`` bandwidth = free tier).

    Bandwidth and latency are lognormal around the configured *medians*
    (``heterogeneity`` is the sigma; 0 = identical backhauls), mirroring the
    client-tier compute sampling discipline: drawn once, from a dedicated
    stream.
    """
    if num_edges < 1:
        raise ValueError(f"num_edges must be >= 1, got {num_edges}")
    if bandwidth_mbps is None:
        return tuple(None for _ in range(num_edges))
    rng = as_generator(seed)
    z = rng.standard_normal((num_edges, 2))
    return tuple(
        LinkSpec(
            bandwidth_bps=float(bandwidth_mbps * MBIT * np.exp(heterogeneity * z[e, 0])),
            latency_s=float(latency_s * np.exp(heterogeneity * z[e, 1])),
        )
        for e in range(num_edges)
    )
