"""The unified transport layer: payloads, contention, and flow records.

Every transfer the simulator prices goes through this module:

- a :class:`Payload` says *what* crosses a link — the exact wire volume in
  bits plus its encoding kind;
- a :class:`Transport` says *how long* it takes — either on an exclusive
  link (``contention="none"``: the paper's Eq. 4 ``T = L + V/B``,
  arithmetic bit-identical to the historical pricing paths) or through a
  shared server-ingress pipe (``contention="fair"``: a capacity
  ``server_ingress_mbps`` max-min fair-shared among concurrent uploads,
  finish times computed by progressive water-filling as flows start and
  finish — the alpha-beta model's natural extension from the MPICH
  collective-communication literature the paper draws on);
- a :class:`TransferRecord` says *what happened* — start/end/volume — and
  feeds the per-round flow ledgers (:class:`repro.fl.history.RoundComm`).

An upload's payload is its compressor's registered wire size
(:func:`repro.compression.registry.wire_size`) at the priced width — the
trained model's, or that of a ``volume_override_bits`` model — so it is known
at dispatch, before the update is trained, and equals the emitted update's
bits (:meth:`Payload.from_update`) whenever the two widths agree. The paper's
ratio-only ``SPARSE_VOLUME_FACTOR × V × CR`` is left to BCRS's plan-time
ratio scheduling (:mod:`repro.core.bcrs`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.compression.base import CompressedUpdate, DenseUpdate, SparseUpdate
from repro.network.cost import LinkSpec, downlink_time, uplink_time
from repro.utils.rng import RngFactory
from repro.utils.validation import check_positive

__all__ = [
    "Payload",
    "TransferRecord",
    "IngressPipe",
    "Transport",
    "FaultInjector",
    "CONTENTION_MODES",
    "MBIT",
]

MBIT = 1e6  # bits per Mbit

#: How concurrent uploads share the server's ingress.
CONTENTION_MODES = ("none", "fair")

#: Payload encodings the pricing layer distinguishes.
PAYLOAD_KINDS = ("dense", "sparse", "quantized", "custom")

#: Admission slop: a flow may start this far behind the resolved fluid
#: frontier (float noise from inclusive deadline pops), never more.
_ADMIT_SLACK = 1e-6


@dataclass(frozen=True)
class Payload:
    """What crosses a link: exact wire volume in bits plus encoding kind."""

    bits: float
    kind: str = "dense"

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError(f"payload bits must be >= 0, got {self.bits}")
        if self.kind not in PAYLOAD_KINDS:
            raise ValueError(f"kind must be one of {PAYLOAD_KINDS}, got {self.kind!r}")

    @property
    def nbytes(self) -> float:
        return self.bits / 8.0

    @staticmethod
    def dense(volume_bits: float) -> "Payload":
        """An uncompressed model/update of ``volume_bits``."""
        return Payload(bits=float(volume_bits), kind="dense")

    @staticmethod
    def from_update(update: CompressedUpdate) -> "Payload":
        """The exact emitted volume of a compressed update — the measure a
        compressor's registered wire size must equal at the trained width.
        """
        if isinstance(update, SparseUpdate):
            kind = "sparse"
        elif isinstance(update, DenseUpdate):
            kind = "quantized" if update.value_bits < 32 else "dense"
        else:
            kind = "custom"
        return Payload(bits=float(update.bits), kind=kind)


@dataclass(frozen=True)
class TransferRecord:
    """One transfer priced through a fair-shared ingress: when it ran, how
    long (``seconds`` = ``end - start``), and what it moved."""

    start: float
    end: float
    seconds: float
    bits: float
    direction: str = "uplink"


@dataclass
class _Flow:
    """One upload in flight through a shared ingress."""

    fid: int
    bits: float
    link_bps: float
    entry: float  # transmission begins (start + link latency)
    remaining: float


class IngressPipe:
    """A shared ingress: concurrent flows drain at max-min fair rates.

    ``capacity_bps=None`` degrades to exclusive links — each flow finishes
    at its analytic (or explicitly given) time and the pipe is merely a
    deterministic completion queue ordered by ``(finish, admission seq)``,
    exactly the ``(time, insertion order)`` contract of the event queue it
    replaces in the protocols.

    With a capacity, the pipe runs a progressive water-filling fluid
    simulation: at any instant each active flow transmits at
    ``min(own link rate, max-min fair share of the capacity)``; admissions
    and completions re-solve the allocation. Completion order is a pure
    function of the admitted flows (ties break by admission sequence), so
    contended runs stay bit-identical across execution backends.

    Callers must admit flows in non-decreasing *decision time* order: a
    flow's ``start`` may never precede the already-resolved fluid frontier
    (the protocols guarantee this — uploads start after the dispatch that
    creates them).
    """

    def __init__(self, capacity_bps: float | None = None, *, trace: bool = False):
        if capacity_bps is not None:
            check_positive("capacity_bps", capacity_bps)
        self.capacity_bps = capacity_bps
        self.trace = trace
        self._next_fid = 0
        self._clock = 0.0  # resolved fluid frontier (fair mode)
        self._pending: list[_Flow] = []  # admitted, transmission not begun
        self._active: list[_Flow] = []  # transmitting at the frontier
        self._out: list[tuple[float, int]] = []  # resolved (finish, fid) heap
        self._finish: dict[int, float] = {}
        #: Fluid trace (only with ``trace=True`` — it grows with every
        #: event): (t0, t1, ((fid, rate_bps), ...)) segments, letting
        #: property tests check the capacity and per-link rate invariants.
        self.segments: list[tuple[float, float, tuple[tuple[int, float], ...]]] = []

    # ------------------------------------------------------------ admission

    def admit(
        self,
        bits: float,
        link: LinkSpec,
        start: float,
        *,
        finish: float | None = None,
    ) -> int:
        """Enter one upload; returns its flow id.

        Exclusive pipes resolve immediately: ``finish`` (when the caller
        already priced the transfer — preserving its float arithmetic) or
        ``start + L + V/B``. Fair pipes ignore ``finish`` and let the fluid
        simulation decide.
        """
        if bits < 0:
            raise ValueError(f"flow bits must be >= 0, got {bits}")
        fid = self._next_fid
        self._next_fid += 1
        if self.capacity_bps is None:
            end = finish if finish is not None else start + uplink_time(link, bits)
            self._finish[fid] = end
            heapq.heappush(self._out, (end, fid))
            return fid
        if start < self._clock - _ADMIT_SLACK:
            raise RuntimeError(
                f"retroactive admission: flow starts at {start} but the fluid "
                f"frontier is already at {self._clock}"
            )
        entry = max(start + link.latency_s, self._clock)
        self._pending.append(
            _Flow(fid=fid, bits=float(bits), link_bps=link.bandwidth_bps, entry=entry, remaining=float(bits))
        )
        return fid

    def cancel(self, fid: int) -> None:
        """Abandon a flow (semisync ``late_policy="drop"``): frees its share."""
        self._pending = [f for f in self._pending if f.fid != fid]
        self._active = [f for f in self._active if f.fid != fid]
        if any(e[1] == fid for e in self._out):
            self._out = [e for e in self._out if e[1] != fid]
            heapq.heapify(self._out)
        self._finish.pop(fid, None)

    # ------------------------------------------------------------- fluid sim

    def _rates(self) -> dict[int, float]:
        """Max-min fair allocation over the active flows.

        Water-filling: flows are considered slowest-link first; each gets
        ``min(own link rate, equal share of the remaining capacity)``. No
        flow ever exceeds its own last-mile rate, and the total never
        exceeds the ingress capacity — fair sharing can only *delay*
        relative to an exclusive link.
        """
        remaining = float(self.capacity_bps)
        rates: dict[int, float] = {}
        flows = sorted(self._active, key=lambda f: (f.link_bps, f.fid))
        n = len(flows)
        for i, f in enumerate(flows):
            share = remaining / (n - i)
            rate = min(f.link_bps, share)
            rates[f.fid] = rate
            remaining -= rate
        return rates

    def _activate(self) -> None:
        started = [f for f in self._pending if f.entry <= self._clock]
        if started:
            self._pending = [f for f in self._pending if f.entry > self._clock]
            self._active.extend(sorted(started, key=lambda f: f.fid))

    def _drain(self, rates: dict[int, float], t: float) -> None:
        dt = t - self._clock
        if dt <= 0:
            return
        if self.trace:
            self.segments.append(
                (self._clock, t, tuple(sorted((f.fid, rates[f.fid]) for f in self._active)))
            )
        for f in self._active:
            f.remaining = max(f.remaining - rates[f.fid] * dt, 0.0)

    def _advance(self, limit: float | None) -> bool:
        """Process one fluid event (entry or completion), never past ``limit``.

        Returns False when the frontier reached ``limit`` (or went idle)
        without an event.
        """
        self._activate()
        next_entry = min((f.entry for f in self._pending), default=math.inf)
        if not self._active:
            if next_entry is math.inf or (limit is not None and next_entry > limit):
                if limit is not None and limit > self._clock:
                    self._clock = limit
                return False
            self._clock = next_entry
            self._activate()
            return True
        rates = self._rates()
        finishes = [
            (self._clock + f.remaining / rates[f.fid] if rates[f.fid] > 0 else math.inf, f.fid)
            for f in self._active
        ]
        t_fin = min(t for t, _ in finishes)
        if t_fin is math.inf and next_entry is math.inf:
            raise RuntimeError("ingress stalled: active flows with zero rate")
        t_next = min(t_fin, next_entry)
        if limit is not None and t_next > limit:
            # A limit behind the frontier must never rewind the clock —
            # drained bits would be double-counted on the next advance.
            self._drain(rates, limit)
            if limit > self._clock:
                self._clock = limit
            return False
        self._drain(rates, t_next)
        self._clock = t_next
        if t_fin <= t_next:
            done = sorted(fid for t, fid in finishes if t == t_fin)
            by_fid = {f.fid: f for f in self._active}
            for fid in done:
                self._active.remove(by_fid[fid])
                self._finish[fid] = t_next
                heapq.heappush(self._out, (t_next, fid))
        self._activate()
        return True

    # ------------------------------------------------------------ completion

    def peek_next(self) -> tuple[float, int] | None:
        """Earliest unconsumed completion as ``(finish, fid)``, or None.

        Fair pipes resolve the fluid simulation forward until one flow
        completes — safe because callers admit no flow that starts in the
        resolved past (see the class contract).
        """
        while not self._out and (self._active or self._pending):
            if not self._advance(None):
                break
        return self._out[0] if self._out else None

    def pop_next(self) -> tuple[float, int] | None:
        """Consume the earliest completion (streaming: the caller now owns
        the finish time, so the pipe forgets it — long-lived protocol pipes
        stay bounded by the in-flight flow count)."""
        nxt = self.peek_next()
        if nxt is None:
            return None
        ev = heapq.heappop(self._out)
        self._finish.pop(ev[1], None)
        return ev

    def pop_until(self, t: float) -> list[tuple[float, int]]:
        """All completions with ``finish <= t``, in (finish, seq) order."""
        if self.capacity_bps is not None:
            while self._advance(t):
                pass
        out = []
        while self._out and self._out[0][0] <= t:
            ev = heapq.heappop(self._out)
            self._finish.pop(ev[1], None)
            out.append(ev)
        return out

    def drain(self) -> list[tuple[float, int]]:
        """Resolve and consume every remaining completion.

        Unlike the streaming pops, finish times stay queryable via
        :meth:`finish_time` afterwards — drain is the terminal operation of
        a round-scoped (throwaway) pipe.
        """
        out = []
        while self.peek_next() is not None:
            out.append(heapq.heappop(self._out))
        return out

    def finish_time(self, fid: int) -> float:
        """Resolved finish of ``fid`` (KeyError if in flight or already
        consumed by a streaming pop)."""
        return self._finish[fid]

    def __len__(self) -> int:
        return len(self._pending) + len(self._active) + len(self._out)


class FaultInjector:
    """Deterministic per-upload fault fates: deliver, drop, or truncate.

    A fate is a pure function of ``(seed, epoch, cid)`` through a dedicated
    counter-based RNG stream (:meth:`repro.utils.rng.RngFactory.counter`),
    so seeded faulty runs stay bit-identical across execution backends and
    sweep parallelism, and fates can be decided in any order — the sync
    barrier prices a whole round at once while the event-driven protocols
    decide per dispatch, and both read the identical draws.

    ``epoch`` disambiguates repeated uploads by one client: synchronized
    protocols pass the round index (hierarchical ones a flat sub-round
    index), event-driven protocols a per-dispatch sequence number.

    - **drop**: the payload burns its wire time (it contends, it is billed)
      but never reaches the aggregator — the update contributes nothing.
    - **truncate**: a prefix of the sparse payload survives and is billed
      at its delivered bits. Partial *dense* blocks are discarded
      deterministically (a truncated dense vector has no usable framing),
      i.e. they degrade to a drop.
    """

    def __init__(
        self,
        seed: int,
        drop_prob: float = 0.0,
        truncate_prob: float = 0.0,
        *,
        stream: str = "fault",
    ):
        for name, prob in (("drop_prob", drop_prob), ("truncate_prob", truncate_prob)):
            # Probabilities, not fractions: 0 (and 1, for always-on) are legal.
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if drop_prob + truncate_prob > 1.0:
            raise ValueError(
                f"drop_prob + truncate_prob must be <= 1, got "
                f"{drop_prob} + {truncate_prob}"
            )
        self.drop_prob = float(drop_prob)
        self.truncate_prob = float(truncate_prob)
        self._rngs = RngFactory(seed)
        self._stream = stream

    @classmethod
    def from_config(cls, config) -> "FaultInjector | None":
        """The injector a config describes — ``None`` when fault-free.

        Returning ``None`` (not an inert injector) keeps the honest path
        free of any per-upload RNG work: existing seeded histories replay
        byte-for-byte when both probabilities are zero.
        """
        if config.drop_prob == 0.0 and config.truncate_prob == 0.0:
            return None
        return cls(config.seed, config.drop_prob, config.truncate_prob)

    def fate(self, epoch: int, cid: int) -> tuple[str, float]:
        """The fate of client ``cid``'s upload in ``epoch``.

        Returns ``("deliver", 1.0)``, ``("drop", 0.0)``, or
        ``("truncate", frac)`` with ``frac`` the surviving payload fraction.
        """
        rng = self._rngs.counter(f"{self._stream}-{int(epoch)}", int(cid))
        u = float(rng.random())
        if u < self.drop_prob:
            return ("drop", 0.0)
        if u < self.drop_prob + self.truncate_prob:
            return ("truncate", float(rng.random()))
        return ("deliver", 1.0)

    @staticmethod
    def truncate(update: CompressedUpdate, frac: float) -> SparseUpdate | None:
        """The delivered prefix of a truncated upload, or ``None`` if unusable.

        Sparse payloads stream (index, value) pairs, so the first
        ``⌊frac·nnz⌋`` entries form a valid smaller update (prefix of a
        strictly increasing index vector). Dense/quantized payloads have no
        partial-block semantics and degrade to a drop.
        """
        if not isinstance(update, SparseUpdate):
            return None
        k = int(frac * update.nnz)
        if k < 1:
            return None
        return SparseUpdate(
            dense_size=update.dense_size,
            indices=update.indices[:k],
            values=update.values[:k],
            index_bits=update.index_bits,
            value_bits=update.value_bits,
        )


class Transport:
    """Prices every transfer of a simulation under one contention policy.

    ``contention="none"`` keeps today's exclusive-link semantics — every
    pricing expression is arithmetic-identical to the pre-transport paths,
    so seeded histories reproduce bit-for-bit. ``contention="fair"``
    fair-shares ``server_ingress_bps`` among concurrent uploads; downlink
    broadcasts stay exclusive (server egress is provisioned, the
    measured bottleneck is ingress).

    Synchronized protocols on a fair transport price each round as its own
    contention epoch (:meth:`resolve_uploads`); event-driven protocols hold
    the persistent server :meth:`pipe`, whose flows span rounds.
    """

    def __init__(self, contention: str = "none", server_ingress_bps: float | None = None):
        if contention not in CONTENTION_MODES:
            raise ValueError(
                f"contention must be one of {CONTENTION_MODES}, got {contention!r}"
            )
        if contention == "fair":
            if server_ingress_bps is None:
                raise ValueError("contention='fair' requires server_ingress_bps")
            check_positive("server_ingress_bps", server_ingress_bps)
        self.contention = contention
        self.server_ingress_bps = server_ingress_bps
        self._pipe: IngressPipe | None = None

    @classmethod
    def from_config(cls, config) -> "Transport":
        """Build the transport an :class:`ExperimentConfig` describes."""
        bps = (
            None
            if config.server_ingress_mbps is None
            else config.server_ingress_mbps * MBIT
        )
        return cls(contention=config.contention, server_ingress_bps=bps)

    @property
    def contended(self) -> bool:
        return self.contention == "fair"

    # ------------------------------------------------------------ exclusive

    def uplink_seconds(self, link: LinkSpec, payload: Payload) -> float:
        """Exclusive-link upload time: Eq. 4 with the payload's exact bits."""
        return uplink_time(link, payload.bits)

    def broadcast_seconds(self, link: LinkSpec | None, payload: Payload) -> float:
        """Cloud→edge broadcast time over a symmetric backhaul (``None``
        link = free tier)."""
        if link is None:
            return 0.0
        return downlink_time(link, payload.bits)

    # ------------------------------------------------------------ contended

    def pipe(self) -> IngressPipe:
        """The persistent server ingress (created on first use)."""
        if self._pipe is None:
            self._pipe = IngressPipe(self.server_ingress_bps if self.contended else None)
        return self._pipe

    def resolve_uploads(
        self,
        flows: list[tuple[Payload, LinkSpec, float]],
        *,
        direction: str = "uplink",
    ) -> list[TransferRecord]:
        """Price one synchronized batch of uploads as a fair-share epoch.

        ``flows`` is ``[(payload, link, start), ...]``, water-filled through
        a fresh ingress scoped to the round (or sub-round). Fair-share only:
        exclusive links need no epoch — their callers price each upload
        analytically. Records come back in input order.
        """
        pipe = IngressPipe(self.server_ingress_bps)
        fids = [
            pipe.admit(payload.bits, link, start) for payload, link, start in flows
        ]
        pipe.drain()
        return [
            TransferRecord(
                start=start,
                end=pipe.finish_time(fid),
                seconds=pipe.finish_time(fid) - start,
                bits=payload.bits,
                direction=direction,
            )
            for fid, (payload, link, start) in zip(fids, flows)
        ]
