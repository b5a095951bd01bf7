"""Per-client link sampling (paper Sec. 5.2).

"Clients are initialized with randomly generated bandwidth with a mean of
1 Mbit/s and a standard deviation of 0.2 Mbit/s in a normal distribution.
The latencies of clients are uniformly distributed with a range of
(50 ms, 200 ms]."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.cost import LinkSpec
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["LinkModel", "PAPER_LINK_MODEL", "sample_links", "TimeVaryingLink"]

MBIT = 1e6  # bits per Mbit


@dataclass(frozen=True)
class LinkModel:
    """Distribution parameters for sampling client links."""

    bandwidth_mean_bps: float = 1.0 * MBIT
    bandwidth_std_bps: float = 0.2 * MBIT
    latency_low_s: float = 0.050
    latency_high_s: float = 0.200
    bandwidth_floor_bps: float = 0.05 * MBIT  # truncate the Normal away from <=0

    def __post_init__(self):
        check_positive("bandwidth_mean_bps", self.bandwidth_mean_bps)
        check_positive("bandwidth_std_bps", self.bandwidth_std_bps, strict=False)
        check_positive("bandwidth_floor_bps", self.bandwidth_floor_bps)
        if not 0 <= self.latency_low_s < self.latency_high_s:
            raise ValueError("need 0 <= latency_low < latency_high")

    def sample(self, rng: np.random.Generator) -> LinkSpec:
        """Draw one client link."""
        bw = float(rng.normal(self.bandwidth_mean_bps, self.bandwidth_std_bps))
        bw = max(bw, self.bandwidth_floor_bps)
        # Uniform over (low, high]: mirror numpy's [low, high) interval.
        lat = float(self.latency_high_s - rng.uniform(0.0, self.latency_high_s - self.latency_low_s))
        return LinkSpec(bandwidth_bps=bw, latency_s=lat)


#: The exact configuration of the paper's measurements section.
PAPER_LINK_MODEL = LinkModel()


def sample_links(
    num_clients: int,
    model: LinkModel = PAPER_LINK_MODEL,
    seed: int | np.random.Generator = 0,
) -> list[LinkSpec]:
    """Sample one static link per client (paper initializes links once)."""
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    rng = as_generator(seed)
    return [model.sample(rng) for _ in range(num_clients)]


#: Share of the log-bandwidth gap to the base value a drifting link closes
#: each round.
_REVERSION = 0.3


class TimeVaryingLink:
    """A link whose bandwidth drifts round-to-round (extension beyond the paper).

    Bandwidth follows a mean-reverting multiplicative random walk around the
    initial value (each round closes ``_REVERSION`` of the log-gap to it);
    latency is fixed. Models mobile/edge clients whose connectivity
    fluctuates, stressing BCRS's per-round rescheduling.
    """

    def __init__(self, base: LinkSpec, rng: np.random.Generator, *, volatility: float = 0.1):
        check_positive("volatility", volatility, strict=False)
        self.base = base
        self.rng = rng
        self.volatility = float(volatility)
        self._current_bw = base.bandwidth_bps

    def step(self) -> LinkSpec:
        """Advance one round and return the current link state."""
        shock = self.rng.normal(0.0, self.volatility)
        drift = _REVERSION * (np.log(self.base.bandwidth_bps) - np.log(self._current_bw))
        # Bandwidth never drifts below the paper model's sampling floor.
        self._current_bw = max(
            self._current_bw * float(np.exp(drift + shock)), PAPER_LINK_MODEL.bandwidth_floor_bps
        )
        return LinkSpec(bandwidth_bps=self._current_bw, latency_s=self.base.latency_s)
