"""Bandwidth-aware Compression Ratio Scheduling — Algorithm 2 of the paper.

Given the selected clients' links and a default compression ratio ``CR*``:

1. compute each client's uplink time at the uniform ratio,
   ``T_comm,i = L_i + 2·V·CR*/B_i`` (Alg. 2 line 7);
2. the slowest such time becomes the benchmark ``T_bench`` (lines 8–11);
3. every client's ratio is raised to exactly fill the benchmark window,
   ``CR_i = (T_bench − L_i)/(2·V) · B_i`` (line 13), clipped into
   ``[cr*, 1]``.

The slowest client keeps ``CR*``; faster clients retain more parameters at no
extra wall-clock cost (Fig. 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.cost import SPARSE_VOLUME_FACTOR, LinkSpec, sparse_uplink_time
from repro.utils.validation import check_fraction, check_positive

__all__ = ["BENCHMARK_RULES", "BCRSSchedule", "schedule_ratios"]

#: Which client's default-ratio time sets ``T_bench`` (the ``benchmark``
#: ablation axis of :func:`schedule_ratios`).
BENCHMARK_RULES = ("max", "median")


@dataclass(frozen=True)
class BCRSSchedule:
    """Output of one round of BCRS scheduling over the selected clients."""

    ratios: np.ndarray  # scheduled CR_i per selected client, same order as input
    t_bench: float  # the benchmark (slowest default-ratio) time, seconds
    benchmark_index: int  # position of the benchmark client within the selection
    default_times: np.ndarray  # T_comm,i at the uniform default ratio
    scheduled_times: np.ndarray  # T_comm,i at the scheduled ratios

    def __post_init__(self):
        if self.ratios.shape != self.default_times.shape:
            raise ValueError("ratios/default_times length mismatch")

    @property
    def num_clients(self) -> int:
        return int(self.ratios.shape[0])

    def saved_time(self) -> float:
        """Per-round waiting time BCRS converts into extra parameters.

        Under uniform compression, faster clients idle for
        ``T_bench − T_comm,i``; BCRS spends that window transmitting more data.
        """
        return float(np.sum(self.t_bench - self.default_times))


def schedule_ratios(
    links: list[LinkSpec],
    volume_bits: float,
    default_cr: float,
    *,
    cr_max: float = 1.0,
    benchmark: str = "max",
) -> BCRSSchedule:
    """Run Algorithm 2 for one round.

    Parameters
    ----------
    links:
        Uplinks of the *selected* clients, in selection order.
    volume_bits:
        Dense model-update volume ``V`` in bits.
    default_cr:
        The uniform ratio ``CR*`` a non-adaptive Top-K would use.
    cr_max:
        Upper clip for scheduled ratios (1.0 = at most the dense update).
    benchmark:
        ``"max"`` is the paper's rule (slowest client). ``"median"`` is an
        ablation that trades some straggler tolerance for less inflation of
        everyone's ratio when one link is pathologically slow; clients slower
        than a median benchmark keep ``default_cr``.
    """
    if not links:
        raise ValueError("need at least one selected client")
    check_fraction("default_cr", default_cr)
    check_fraction("cr_max", cr_max)
    check_positive("volume_bits", volume_bits)
    if default_cr > cr_max:
        raise ValueError(f"default_cr {default_cr} exceeds cr_max {cr_max}")

    default_times = np.array(
        [sparse_uplink_time(link, volume_bits, default_cr) for link in links]
    )
    if benchmark == "max":
        bench_idx = int(np.argmax(default_times))
        t_bench = float(default_times[bench_idx])
    elif benchmark == "median":
        order = np.argsort(default_times)
        bench_idx = int(order[len(order) // 2])
        t_bench = float(default_times[bench_idx])
    else:
        raise ValueError(
            f"unknown benchmark rule {benchmark!r}; expected one of {BENCHMARK_RULES}"
        )

    bandwidths = np.array([link.bandwidth_bps for link in links])
    latencies = np.array([link.latency_s for link in links])
    # Alg. 2 line 13; clip handles clients slower than a non-max benchmark
    # (ratio below CR*) and very fast clients (ratio above cr_max).
    raw = (t_bench - latencies) / (SPARSE_VOLUME_FACTOR * volume_bits) * bandwidths
    ratios = np.clip(raw, default_cr, cr_max)

    scheduled_times = np.array(
        [sparse_uplink_time(link, volume_bits, cr) for link, cr in zip(links, ratios)]
    )
    return BCRSSchedule(
        ratios=ratios,
        t_bench=t_bench,
        benchmark_index=bench_idx,
        default_times=default_times,
        scheduled_times=scheduled_times,
    )
