"""Network substrate: cost model, transport layer, link sampling, metrics."""

from repro.network.transport import (
    CONTENTION_MODES,
    IngressPipe,
    Payload,
    Transport,
)
from repro.network.cost import (
    SPARSE_VOLUME_FACTOR,
    LinkSpec,
    model_bits,
    sparse_uplink_time,
    uplink_time,
)
from repro.network.links import MBIT, PAPER_LINK_MODEL, LinkModel, TimeVaryingLink, sample_links
from repro.network.metrics import RoundTimes, TimeAccumulator

__all__ = [
    "LinkSpec",
    "model_bits",
    "uplink_time",
    "sparse_uplink_time",
    "SPARSE_VOLUME_FACTOR",
    "LinkModel",
    "PAPER_LINK_MODEL",
    "MBIT",
    "sample_links",
    "TimeVaryingLink",
    "RoundTimes",
    "TimeAccumulator",
    "Payload",
    "IngressPipe",
    "Transport",
    "CONTENTION_MODES",
]
