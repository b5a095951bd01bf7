"""The virtual clock's event log: who trained and uploaded when.

Determinism contract (extends the :mod:`repro.exec` contract to virtual
time): upload arrivals are scheduled by the transport layer's
:class:`~repro.network.transport.IngressPipe`, whose order is a pure
function of ``(finish, admission order)``, so the full event trace — and
everything derived from it (dispatch order, aggregation membership,
staleness) — is bit-identical across execution backends. The
:class:`SpanLog` is the event log every protocol writes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClientSpan", "SpanLog"]


@dataclass(frozen=True)
class ClientSpan:
    """One client's contiguous activity interval on the virtual clock."""

    cid: int
    kind: str  # "train" | "upload"
    start: float
    end: float
    tag: int = -1  # round index (sync/semisync) or model version (async)

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"span end {self.end} < start {self.start}")


class SpanLog:
    """Append-only log of :class:`ClientSpan` — the scheduler's event log.

    The trace export (:meth:`repro.obs.tracer.Tracer.add_virtual_spans`)
    mirrors it; tests compare logs across backends to enforce the
    virtual-time determinism contract.
    """

    def __init__(self):
        self.spans: list[ClientSpan] = []

    def add(self, cid: int, kind: str, start: float, end: float, tag: int = -1) -> ClientSpan:
        span = ClientSpan(cid=int(cid), kind=kind, start=float(start), end=float(end), tag=int(tag))
        self.spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)
