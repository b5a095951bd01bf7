"""Multi-tier topology: cloud → edge aggregators → clients.

Production FL deployments rarely talk last-mile links directly into a
datacenter: clients attach to an *edge aggregator* (base station, campus
gateway, regional PoP) over heterogeneous last-mile links, and the edges
reach the cloud over a much fatter — but not free — backhaul. The
:class:`TierTopology` captures both tiers with distinct per-tier
:class:`~repro.network.cost.LinkSpec` draws:

- **client↔edge**: the per-client last-mile links (paper Sec. 5.2 model);
- **edge↔cloud**: per-edge backhaul links drawn lognormally around a
  configured median, or ``None`` for a *free* backhaul (zero transfer time
  — the degenerate configuration under which the hierarchical protocol
  reduces exactly to the flat one).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.network.cost import LinkSpec, uplink_time
from repro.utils.rng import as_generator

__all__ = ["TierTopology", "assign_edges", "sample_backhaul_links", "build_tier_topology"]

MBIT = 1e6  # bits per Mbit


def assign_edges(
    num_clients: int,
    num_edges: int,
    mode: str = "contiguous",
    *,
    links: Sequence[LinkSpec] | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[tuple[int, ...], ...]:
    """Partition client ids into ``num_edges`` non-empty groups.

    - ``"contiguous"``: ids split into consecutive chunks (deterministic,
      the degenerate-friendly default);
    - ``"random"``: a seeded permutation split into chunks — models
      geography-independent placement;
    - ``"bandwidth"``: clients sorted by last-mile bandwidth then chunked,
      so each edge serves a homogeneous bandwidth class (requires ``links``)
      — the placement that maximizes what per-edge BCRS can recover, since
      each group's benchmark client is close to its peers.

    Groups are internally sorted by client id.
    """
    if not 1 <= num_edges <= num_clients:
        raise ValueError(
            f"need 1 <= num_edges <= num_clients, got {num_edges} of {num_clients}"
        )
    if mode == "contiguous":
        order = np.arange(num_clients)
    elif mode == "random":
        order = as_generator(seed).permutation(num_clients)
    elif mode == "bandwidth":
        if links is None:
            raise ValueError("edge_assignment='bandwidth' needs the client links")
        if len(links) != num_clients:
            raise ValueError(f"{len(links)} links for {num_clients} clients")
        # Stable sort keeps equal-bandwidth ties in id order (deterministic).
        order = np.argsort([link.bandwidth_bps for link in links], kind="stable")
    else:
        raise ValueError(f"unknown edge assignment {mode!r}")
    return tuple(
        tuple(int(c) for c in np.sort(chunk))
        for chunk in np.array_split(order, num_edges)
    )


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


@dataclass(frozen=True)
class TierTopology:
    """Cloud at the root, ``E`` edges, each serving a group of clients.

    ``groups[e]`` are the sorted client ids attached to edge ``e``;
    ``client_links[c]`` is client ``c``'s last-mile (client↔edge) link;
    ``backhaul_links[e]`` is edge ``e``'s edge↔cloud link, or ``None`` for a
    free backhaul whose transfers cost exactly zero virtual seconds.
    """

    groups: tuple[tuple[int, ...], ...]
    client_links: tuple[LinkSpec, ...]
    backhaul_links: tuple[LinkSpec | None, ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("need at least one edge group")
        if len(self.backhaul_links) != len(self.groups):
            raise ValueError(
                f"{len(self.backhaul_links)} backhaul links for {len(self.groups)} edges"
            )
        seen: list[int] = sorted(c for g in self.groups for c in g)
        if any(not g for g in self.groups):
            raise ValueError("every edge must serve at least one client")
        if seen != list(range(len(self.client_links))):
            raise ValueError("groups must partition the client id range exactly once")

    @property
    def num_edges(self) -> int:
        return len(self.groups)

    @property
    def num_clients(self) -> int:
        return len(self.client_links)

    def edge_of(self, cid: int) -> int:
        """The edge serving client ``cid``."""
        for e, g in enumerate(self.groups):
            if cid in g:
                return e
        raise KeyError(f"client {cid} is in no edge group")

    def backhaul_uplink_time(self, edge: int, volume_bits: float) -> float:
        """Edge→cloud transfer time of a dense ``volume_bits`` payload."""
        link = self.backhaul_links[edge]
        return 0.0 if link is None else uplink_time(link, volume_bits)


def build_tier_topology(config, client_links: Sequence[LinkSpec], rngs) -> TierTopology:
    """Assemble the tier topology an ``ExperimentConfig`` describes.

    Uses dedicated RNG streams (``edge-assign``, ``backhaul``) so adding the
    hierarchy never perturbs the flat protocol's draws.
    """
    groups = assign_edges(
        config.num_clients,
        config.num_edges,
        config.edge_assignment,
        links=client_links,
        seed=rngs.stream("edge-assign"),
    )
    backhaul = sample_backhaul_links(
        config.num_edges,
        bandwidth_mbps=config.backhaul_bandwidth_mbps,
        latency_s=config.backhaul_latency_s,
        heterogeneity=config.backhaul_heterogeneity,
        seed=rngs.stream("backhaul"),
    )
    return TierTopology(
        groups=groups, client_links=tuple(client_links), backhaul_links=backhaul
    )
