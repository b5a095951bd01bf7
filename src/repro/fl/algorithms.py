"""Algorithm presets: what each Table 2 row does in a round.

An :class:`Algorithm` decides, given the round's selected links and data
frequencies, (a) the per-client compression ratios (``None`` = dense
FedAvg), (b) the client-averaging coefficients, (c) whether the OPWA mask
applies, and (d) the round's synchronization time semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bcrs import schedule_ratios
from repro.core.coefficients import adjusted_coefficients, fedavg_coefficients
from repro.fl.config import ExperimentConfig
from repro.network.cost import (
    DOWNLINK_FACTOR,
    LinkSpec,
    downlink_time,
    sparse_uplink_time,
    uplink_time,
)
from repro.network.metrics import RoundTimes

__all__ = ["RoundPlan", "Algorithm", "make_algorithm"]


@dataclass(frozen=True)
class RoundPlan:
    """One round's communication decisions for the selected clients."""

    ratios: np.ndarray | None  # per-client CR_i; None = dense upload
    weights: np.ndarray  # averaging coefficients (f_i or Eq. 6 p'_i)
    use_opwa: bool
    times: RoundTimes  # actual/max/min per Sec. 5.2 semantics


def _downlink_times(links: list[LinkSpec], volume_bits: float) -> np.ndarray:
    """Broadcast time of the dense global model at ``DOWNLINK_FACTOR``× the
    uplink bandwidth (downlink is uncompressed — Sec. 3.3's uplink-only
    rationale)."""
    return np.array(
        [downlink_time(link, volume_bits, bandwidth_factor=DOWNLINK_FACTOR) for link in links]
    )


def _round_times(
    links: list[LinkSpec],
    volume_bits: float,
    compressed: np.ndarray | None,
    *,
    downlink: np.ndarray | None = None,
) -> RoundTimes:
    """Sec. 5.2 metrics: *maximum* is always the uncompressed straggler time
    (the FedAvg cost of the same round); *actual*/*minimum* are the
    algorithm's own slowest/fastest client over its per-client upload
    times ``compressed`` (``None`` = dense uploads). ``downlink``
    (optional per-client broadcast times) adds to every metric."""
    dense = np.array([uplink_time(link, volume_bits) for link in links])
    if compressed is None:
        compressed = dense
    if downlink is not None:
        dense = dense + downlink
        compressed = compressed + downlink
    # ``maximum`` is the worst per-client time of the round. For CR <= 0.5
    # that is always the dense straggler (sparse volume = 2·V·CR <= V), but
    # the config permits CR > 0.5 where the (index, value) encoding
    # *inflates* the upload — take the elementwise worst so the
    # minimum <= maximum invariant survives anti-compression too.
    return RoundTimes(
        actual=float(compressed.max()),
        maximum=float(np.maximum(dense, compressed).max()),
        minimum=float(compressed.min()),
        downlink=0.0 if downlink is None else float(downlink.max()),
    )


class Algorithm:
    """Base: dense FedAvg behaviour; subclasses override pieces."""

    name = "fedavg"
    compressor_name: str | None = None  # registry name for client compressors
    use_opwa = False  # whether aggregation applies the OPWA mask (Alg. 3)

    def __init__(self, config: ExperimentConfig):
        self.config = config

    def _downlink(self, links: list[LinkSpec], volume_bits: float) -> np.ndarray | None:
        if not self.config.include_downlink:
            return None
        return _downlink_times(links, volume_bits)

    def plan(
        self,
        links: list[LinkSpec],
        data_frequencies: np.ndarray,
        volume_bits: float,
    ) -> RoundPlan:
        weights = fedavg_coefficients(data_frequencies)
        return RoundPlan(
            ratios=None,
            weights=weights,
            use_opwa=False,
            times=_round_times(links, volume_bits, None, downlink=self._downlink(links, volume_bits)),
        )


class TopKAlgorithm(Algorithm):
    """Uniform-ratio Top-K FedAvg (the TOPK baseline)."""

    name = "topk"
    compressor_name = "topk"

    def plan(self, links, data_frequencies, volume_bits) -> RoundPlan:
        cr = self.config.compression_ratio
        compressed = np.array([sparse_uplink_time(link, volume_bits, cr) for link in links])
        return RoundPlan(
            ratios=np.full(len(links), cr),
            weights=fedavg_coefficients(data_frequencies),
            use_opwa=False,
            times=_round_times(links, volume_bits, compressed, downlink=self._downlink(links, volume_bits)),
        )


class EFTopKAlgorithm(TopKAlgorithm):
    """Top-K with per-client error feedback (the EFTOPK baseline)."""

    name = "eftopk"
    compressor_name = "ef_topk"


class DeadlineTopKAlgorithm(TopKAlgorithm):
    """Uniform Top-K with a round deadline that *drops* stragglers.

    The classic alternative to BCRS for straggler mitigation: the round ends
    at the ``deadline_quantile`` of the clients' compressed upload times;
    clients that cannot finish are excluded from aggregation (their weight is
    renormalized over the survivors). Drops information instead of adapting
    ratios — the ablation BCRS is designed to beat.
    """

    name = "deadline_topk"

    def plan(self, links, data_frequencies, volume_bits) -> RoundPlan:
        cfg = self.config
        ratios = np.full(len(links), cfg.compression_ratio)
        compressed = np.array(
            [sparse_uplink_time(link, volume_bits, cfg.compression_ratio) for link in links]
        )
        deadline = float(np.quantile(compressed, cfg.deadline_quantile))
        included = compressed <= deadline + 1e-12
        weights = fedavg_coefficients(data_frequencies).copy()
        weights[~included] = 0.0
        total = weights.sum()
        if total == 0.0:  # degenerate: keep the fastest client
            fastest = int(np.argmin(compressed))
            weights[fastest] = 1.0
            included[fastest] = True
        else:
            weights /= total
        dense = np.array([uplink_time(link, volume_bits) for link in links])
        down = self._downlink(links, volume_bits)
        actual = deadline
        minimum = float(compressed.min())
        # Worst per-client time: the dense straggler for real compression,
        # the compressed straggler when CR > 0.5 inflates uploads.
        maximum = float(np.maximum(dense, compressed).max())
        down_part = 0.0
        if down is not None:
            down_part = float(down.max())
            actual += down_part
            minimum += float(down.min())
            maximum += down_part
        times = RoundTimes(actual=actual, maximum=maximum, minimum=minimum, downlink=down_part)
        return RoundPlan(ratios=ratios, weights=weights, use_opwa=False, times=times)


class BCRSAlgorithm(Algorithm):
    """The paper's BCRS: scheduled ratios + Eq. 6 coefficients.

    The round's *actual* time is the benchmark ``T_bench`` — BCRS equalizes
    client finish times at the slowest default-ratio client.
    """

    name = "bcrs"
    compressor_name = "topk"

    def plan(self, links, data_frequencies, volume_bits) -> RoundPlan:
        cfg = self.config
        sched = schedule_ratios(
            links,
            volume_bits,
            cfg.compression_ratio,
            benchmark=cfg.benchmark,
        )
        weights = adjusted_coefficients(
            data_frequencies, sched.ratios, cfg.alpha, norm=cfg.norm_mode
        )
        times = _round_times(
            links, volume_bits, sched.scheduled_times, downlink=self._downlink(links, volume_bits)
        )
        return RoundPlan(ratios=sched.ratios, weights=weights, use_opwa=self.use_opwa, times=times)


class BCRSOPWAAlgorithm(BCRSAlgorithm):
    """BCRS + the OPWA parameter mask (the paper's full method)."""

    name = "bcrs_opwa"
    use_opwa = True


_ALGORITHMS = {
    cls.name: cls
    for cls in (
        Algorithm,
        TopKAlgorithm,
        EFTopKAlgorithm,
        DeadlineTopKAlgorithm,
        BCRSAlgorithm,
        BCRSOPWAAlgorithm,
    )
}


def make_algorithm(config: ExperimentConfig) -> Algorithm:
    """Instantiate the algorithm named by ``config.algorithm``."""
    try:
        cls = _ALGORITHMS[config.algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {config.algorithm!r}; available: {sorted(_ALGORITHMS)}"
        ) from None
    return cls(config)
