"""Per-device timing profiles: what a dispatch costs on the virtual clock.

A dispatched client passes through a three-stage pipeline — download the
global model, compute the local update, upload it — and every stage is
priced from seeded draws:

- **compute**: :class:`ComputeSpec` charges ``overhead + s_per_sample ×
  samples × epochs`` seconds; per-client speeds come from a lognormal draw
  around the configured median (device heterogeneity), or from a
  :class:`TraceProfile` replaying measured speeds;
- **comm**: the paper's alpha-beta cost model (:mod:`repro.network.cost`) —
  uplink via Eq. 4 / Alg. 2 line 7, downlink via the broadcast variant.

Every number is a pure function of the config seed, so event timestamps are
bit-identical across execution backends.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    "TraceProfile",
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


class TraceProfile:
    """Trace-driven compute speeds: replay measured per-dispatch multipliers.

    Wraps a base :class:`ComputeSpec` and scales each successive dispatch's
    compute time by the next entry of ``trace`` (cycling) — e.g. a device
    that throttles every other invocation replays ``(1.0, 2.5)``. Stateful:
    the k-th call uses ``trace[k % len(trace)]``, so the sequence of costs
    is deterministic given the (deterministic) dispatch order.
    """

    def __init__(self, base: ComputeSpec, trace: Sequence[float]):
        if len(trace) == 0:
            raise ValueError("trace must be non-empty")
        trace = tuple(float(m) for m in trace)
        if any(m <= 0 for m in trace):
            raise ValueError(f"trace multipliers must be > 0, got {trace}")
        self.base = base
        self.trace = trace
        self._calls = 0

    @property
    def overhead_s(self) -> float:
        return self.base.overhead_s

    def train_time(self, num_samples: int, epochs: int) -> float:
        """Next dispatch's compute time, advancing the trace cursor."""
        mult = self.trace[self._calls % len(self.trace)]
        self._calls += 1
        return self.base.overhead_s + self.base.s_per_sample * mult * num_samples * epochs


@dataclass
class DeviceProfile:
    """One client's full timing identity: compute speed + link draw.

    ``compute`` is a :class:`ComputeSpec` or :class:`TraceProfile` (duck
    typed on ``train_time``); ``link`` is the client's uplink draw. Comm
    methods accept a ``link`` override so time-varying links can be priced
    at their current state without rebuilding the profile.
    """

    cid: int
    compute: ComputeSpec | TraceProfile
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
