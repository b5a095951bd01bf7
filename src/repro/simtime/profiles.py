"""Per-device timing profiles: what a dispatch costs on the virtual clock.

A dispatched client passes through a three-stage pipeline — download the
global model, compute the local update, upload it — and every stage is
priced from seeded draws:

- **compute**: :class:`ComputeSpec` charges ``overhead + s_per_sample ×
  samples × epochs`` seconds; per-client speeds come from a lognormal draw
  around the configured median (device heterogeneity);
- **comm**: the paper's alpha-beta cost model (:mod:`repro.network.cost`) —
  uplink via Eq. 4 / Alg. 2 line 7, downlink via the broadcast variant.

Every number is a pure function of the config seed, so event timestamps are
bit-identical across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.cost import (
    DOWNLINK_FACTOR,
    LinkSpec,
    downlink_time,
    sparse_uplink_time,
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

    ``compute`` is the client's :class:`ComputeSpec`; ``link`` is its
    uplink draw. Comm methods accept a ``link`` override so time-varying
    links can be priced at their current state without rebuilding the
    profile.
    """

    cid: int
    compute: ComputeSpec
    link: LinkSpec

    def train_time(self, num_samples: int, epochs: int) -> float:
        return self.compute.train_time(num_samples, epochs)

    def upload_time(
        self,
        volume_bits: float,
        ratio: float | None,
        *,
        link: LinkSpec | None = None,
        payload: Payload | None = None,
    ) -> float:
        """Uplink time of one update on an exclusive link.

        With a :class:`~repro.network.transport.Payload` the transfer is
        priced from its *exact* wire bits (Eq. 4 on what was actually
        emitted — quantized and sparse encodings included); without one it
        falls back to the planned-ratio approximation (dense volume, or
        ``SPARSE_VOLUME_FACTOR × V × CR`` for ``ratio`` set).
        """
        link = self.link if link is None else link
        if payload is not None:
            return uplink_time(link, payload.bits)
        if ratio is None:
            return uplink_time(link, volume_bits)
        return sparse_uplink_time(link, volume_bits, float(ratio))

    def download_time(self, volume_bits: float, *, link: LinkSpec | None = None) -> float:
        """Broadcast (server→client) time for the dense global model, at
        :data:`~repro.network.cost.DOWNLINK_FACTOR` × the uplink bandwidth."""
        link = self.link if link is None else link
        return downlink_time(link, volume_bits, bandwidth_factor=DOWNLINK_FACTOR)


def pipeline_times(
    device: DeviceProfile,
    *,
    volume_bits: float,
    ratio: float | None,
    num_samples: int,
    epochs: int,
    include_downlink: bool,
    link: LinkSpec | None = None,
    payload: Payload | None = None,
) -> tuple[float, float, float]:
    """(download, train, upload) virtual durations for one dispatch.

    The downlink stage is 0 when ``include_downlink`` is off, matching the
    paper's uplink-only accounting (Sec. 3.3); pass the client's *current*
    ``link`` when links drift round-to-round, and the upload's ``payload``
    to price the exact emitted bits instead of the ratio plan.
    """
    down = (
        device.download_time(volume_bits, link=link)
        if include_downlink
        else 0.0
    )
    train = device.train_time(num_samples, epochs)
    up = device.upload_time(volume_bits, ratio, link=link, payload=payload)
    return down, train, up
