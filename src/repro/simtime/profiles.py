"""Per-device timing profiles: what a dispatch costs on the virtual clock.

A dispatched client passes through a three-stage pipeline — download the
global model, compute the local update, upload it — and every stage is
priced from seeded draws:

- **compute**: :class:`ComputeSpec` charges ``overhead + s_per_sample ×
  samples × epochs`` seconds; per-client speeds come from a lognormal draw
  around the configured median (device heterogeneity);
- **comm**: the paper's alpha-beta cost model (:mod:`repro.network.cost`) —
  uplink via Eq. 4 / Alg. 2 line 7 on the upload's exact
  :class:`~repro.network.transport.Payload` bits, downlink via the
  broadcast variant.

Every number is a pure function of the config seed, so event timestamps are
bit-identical across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.cost import (
    DOWNLINK_FACTOR,
    LinkSpec,
    downlink_time,
    uplink_time,
)
from repro.network.transport import Payload
from repro.utils.validation import check_positive

__all__ = [
    "ComputeSpec",
    "DeviceProfile",
    "pipeline_times",
]


@dataclass(frozen=True)
class ComputeSpec:
    """A device's local-training speed: seconds per (sample × epoch)."""

    s_per_sample: float
    overhead_s: float = 0.0  # fixed per-dispatch cost (model load, setup)

    def __post_init__(self):
        check_positive("s_per_sample", self.s_per_sample)
        check_positive("overhead_s", self.overhead_s, strict=False)

    def train_time(self, num_samples: int, epochs: int) -> float:
        """Virtual seconds to run ``epochs`` passes over ``num_samples``."""
        if num_samples < 0 or epochs < 0:
            raise ValueError(f"need num_samples, epochs >= 0, got {num_samples}, {epochs}")
        return self.overhead_s + self.s_per_sample * num_samples * epochs


@dataclass
class DeviceProfile:
    """One client's full timing identity: compute speed + link draw.

    ``compute`` is the client's :class:`ComputeSpec`; ``link`` is the link
    a dispatch is priced on — the population hands out profiles already
    carrying the client's *current* link (``devices.with_link``), so
    drifting links need no override here.
    """

    cid: int
    compute: ComputeSpec
    link: LinkSpec

    def train_time(self, num_samples: int, epochs: int) -> float:
        return self.compute.train_time(num_samples, epochs)


def pipeline_times(
    device: DeviceProfile,
    *,
    volume_bits: float,
    num_samples: int,
    epochs: int,
    include_downlink: bool,
    payload: Payload,
) -> tuple[float, float, float]:
    """(download, train, upload) virtual durations for one dispatch.

    The upload is Eq. 4 on the ``payload``'s exact wire bits over
    ``device.link``; the download broadcasts the dense ``volume_bits`` at
    :data:`~repro.network.cost.DOWNLINK_FACTOR` × that link's bandwidth, or
    is 0 when ``include_downlink`` is off (the paper's uplink-only
    accounting, Sec. 3.3).
    """
    down = (
        downlink_time(device.link, volume_bits, bandwidth_factor=DOWNLINK_FACTOR)
        if include_downlink
        else 0.0
    )
    train = device.train_time(num_samples, epochs)
    up = uplink_time(device.link, payload.bits)
    return down, train, up
