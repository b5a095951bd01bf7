"""The paper's communication cost model (Sec. 3.2, Eq. 4; Alg. 2 line 7).

``T_comm = L + V / B`` where latency ``L`` is per-message and independent of
size, ``V`` is the transmitted volume in bits, and bandwidth ``B`` is in bits
per second — the Thakur-Rabenseifner-Gropp alpha-beta model the paper adopts
from MPICH collective-communication analysis.

For *sparsified* uploads the paper charges ``2 × V × CR / B``: each retained
parameter ships an (index, value) pair, doubling the per-entry volume
relative to a dense vector of the same retained fraction.

The factor-2 expression is *ratio-only planning*, used by BCRS's plan-time
ratio scheduling (:mod:`repro.core.bcrs`). The simulator's transfers are
priced by :mod:`repro.network.transport` from each compressor's registered
wire size (``k × (index_bits + value_bits)`` for Top-K, ``d × value_bits``
for quantized formats), at the trained width or a ``volume_override_bits``
model's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "LinkSpec",
    "uplink_time",
    "downlink_time",
    "sparse_uplink_time",
    "model_bits",
    "SPARSE_VOLUME_FACTOR",
    "DOWNLINK_FACTOR",
]

#: Paper's factor for sparse transfers (index + value per retained entry).
#: Ratio-only planning; transfers are priced from each compressor's
#: registered wire size via repro.network.transport.Payload.
SPARSE_VOLUME_FACTOR = 2.0

#: Client downlink bandwidth as a multiple of its uplink (Sec. 3.3:
#: downstream bandwidth is typically ~10× upstream).
DOWNLINK_FACTOR = 10.0


@dataclass(frozen=True)
class LinkSpec:
    """One link: uplink bandwidth in bits/s, latency in seconds.

    The downlink is priced from the same bandwidth scaled by
    :func:`downlink_time`'s ``bandwidth_factor``.
    """

    bandwidth_bps: float
    latency_s: float

    def __post_init__(self):
        check_positive("bandwidth_bps", self.bandwidth_bps)
        check_positive("latency_s", self.latency_s, strict=False)


def model_bits(num_parameters: int, *, bits_per_value: int = 32) -> float:
    """Dense transmitted volume ``V`` in bits for a parameter vector."""
    if num_parameters < 0:
        raise ValueError(f"num_parameters must be >= 0, got {num_parameters}")
    if bits_per_value <= 0:
        raise ValueError(f"bits_per_value must be > 0, got {bits_per_value}")
    return float(num_parameters) * bits_per_value


def uplink_time(link: LinkSpec, volume_bits: float) -> float:
    """Eq. 4: ``T = L + V/B`` for a message of ``volume_bits``."""
    if volume_bits < 0:
        raise ValueError(f"volume_bits must be >= 0, got {volume_bits}")
    return link.latency_s + volume_bits / link.bandwidth_bps


def downlink_time(
    link: LinkSpec, volume_bits: float, *, bandwidth_factor: float = 1.0
) -> float:
    """Broadcast (server→client) time: ``T = L + V / B_down``.

    The paper charges only the uplink (Sec. 3.3: broadcast shares one
    transmission and downstream bandwidth is typically ~10× upstream), but
    time-to-accuracy accounting needs the server→client volume priced too.
    ``bandwidth_factor`` scales the uplink bandwidth: clients use
    :data:`DOWNLINK_FACTOR`, an edge's symmetric backhaul 1. Latency is
    direction-symmetric.
    """
    check_positive("bandwidth_factor", bandwidth_factor)
    if volume_bits < 0:
        raise ValueError(f"volume_bits must be >= 0, got {volume_bits}")
    return link.latency_s + volume_bits / (link.bandwidth_bps * bandwidth_factor)


def sparse_uplink_time(link: LinkSpec, dense_volume_bits: float, cr: float) -> float:
    """Alg. 2 line 7: ``T = L + 2·V·CR / B`` for a sparsified upload.

    ``cr`` is the *retained fraction* (the paper's compression ratio); the
    factor 2 accounts for transmitting (index, value) pairs.
    """
    check_fraction("cr", cr)
    if dense_volume_bits < 0:
        raise ValueError(f"dense_volume_bits must be >= 0, got {dense_volume_bits}")
    return link.latency_s + SPARSE_VOLUME_FACTOR * dense_volume_bits * cr / link.bandwidth_bps
