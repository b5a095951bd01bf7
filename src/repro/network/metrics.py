"""Round-time metrics (paper Sec. 5.2).

The paper accumulates three quantities over communication rounds:

- **Actual Time** — the communication time the algorithm actually incurs in a
  round (for BCRS, every client finishes near the benchmark; for uniform
  compression it is the straggler's time).
- **Maximum Communication Time** — the straggler's time; its accumulation is
  FedAvg's total transmission duration.
- **Minimum Communication Time** — the fastest client's time; its accumulation
  is the no-straggler optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundTimes", "TimeAccumulator"]


@dataclass(frozen=True)
class RoundTimes:
    """Per-round communication-time summary over the selected clients.

    ``downlink`` is the round's broadcast (server→client) component,
    *already included* in the other three fields when downlink accounting
    is enabled — it is recorded separately so the uplink/downlink split
    stays recoverable (0.0 when only uplink is charged).
    """

    actual: float
    maximum: float
    minimum: float
    downlink: float = 0.0

    def __post_init__(self):
        if not (self.minimum <= self.maximum):
            raise ValueError(f"minimum {self.minimum} > maximum {self.maximum}")
        if self.actual < 0:
            raise ValueError(f"actual time must be >= 0, got {self.actual}")
        if self.downlink < 0:
            raise ValueError(f"downlink time must be >= 0, got {self.downlink}")


@dataclass
class TimeAccumulator:
    """Accumulate :class:`RoundTimes` across rounds (Sec. 5.2 metrics)."""

    actual_total: float = 0.0
    max_total: float = 0.0
    min_total: float = 0.0
    downlink_total: float = 0.0
    rounds: int = 0
    _actual_series: list[float] = field(default_factory=list)

    def update(self, rt: RoundTimes) -> None:
        """Add one round's times."""
        self.actual_total += rt.actual
        self.max_total += rt.maximum
        self.min_total += rt.minimum
        self.downlink_total += rt.downlink
        self.rounds += 1
        self._actual_series.append(self.actual_total)

    @property
    def actual_series(self) -> np.ndarray:
        """Cumulative actual time after each round (Fig. 10 x-axis)."""
        return np.asarray(self._actual_series)
