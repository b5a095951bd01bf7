"""Dispatch pricing: what one dispatch costs on the virtual clock.

A dispatched client passes through a three-stage pipeline — download the
global model, compute the local update, upload it — and every stage is
priced from the population's seeded columns:

- **compute**: ``s_per_sample × samples × epochs`` seconds; per-client
  speeds come from a lognormal draw around the configured median (device
  heterogeneity, :attr:`~repro.population.table.Population.s_per_sample`);
- **comm**: the paper's alpha-beta cost model (:mod:`repro.network.cost`) —
  uplink via Eq. 4 / Alg. 2 line 7 on the upload's exact
  :class:`~repro.network.transport.Payload` bits, downlink via the
  broadcast variant.

Every number is a pure function of the config seed, so event timestamps are
bit-identical across execution backends.
"""

from __future__ import annotations

from repro.network.cost import (
    DOWNLINK_FACTOR,
    LinkSpec,
    downlink_time,
    uplink_time,
)
from repro.network.transport import Payload

__all__ = ["pipeline_times"]


def pipeline_times(
    link: LinkSpec,
    s_per_sample: float,
    *,
    volume_bits: float,
    num_samples: int,
    epochs: int,
    include_downlink: bool,
    payload: Payload,
) -> tuple[float, float, float]:
    """(download, train, upload) virtual durations for one dispatch.

    The upload is Eq. 4 on the ``payload``'s exact wire bits over ``link``
    (the client's *current* link); training costs ``s_per_sample`` seconds
    per sample × epoch; the download broadcasts the dense ``volume_bits`` at
    :data:`~repro.network.cost.DOWNLINK_FACTOR` × that link's bandwidth, or
    is 0 when ``include_downlink`` is off (the paper's uplink-only
    accounting, Sec. 3.3).
    """
    down = (
        downlink_time(link, volume_bits, bandwidth_factor=DOWNLINK_FACTOR)
        if include_downlink
        else 0.0
    )
    train = s_per_sample * num_samples * epochs
    up = uplink_time(link, payload.bits)
    return down, train, up
