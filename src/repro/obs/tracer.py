"""Wall-clock span tracing, exported as a Chrome trace.

A :class:`Tracer` records *spans* — named wall-clock intervals with a
category, a lane (``tid``), and free-form args — and *instants* (zero-width
events). Spans cover the whole simulator taxonomy (see
``docs/ARCHITECTURE.md`` § Observability): round phases, per-client
train/compress tasks, transport resolution, hier sub-rounds, hydrations,
sweep cells. :meth:`Tracer.export_chrome` writes the one export, the
Chrome trace event format: ``chrome://tracing`` and
https://ui.perfetto.dev open it directly, and :func:`load_trace` reads it
back for :mod:`repro.obs.profile` and the HTML report.

Timestamps are ``time.perf_counter()`` seconds. On Linux that clock is
``CLOCK_MONOTONIC``, which is shared across processes — so spans measured
inside forked process-backend workers (funneled back to the parent through
:class:`~repro.exec.base.TaskResult`'s wall-clock fields) land on the same
timeline as the parent's own spans, each worker in its own ``tid`` lane.

Determinism contract: tracing never touches a seeded RNG stream and never
feeds back into the simulation — a traced run's history is bit-identical
to an untraced one. The disabled path is :class:`NullTracer`, whose
``span()`` returns one cached no-op context manager: the cost of an
un-traced instrumentation site is an attribute load and a branch.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

__all__ = ["Span", "Instant", "Tracer", "NullTracer", "NULL_TRACER", "load_trace"]

#: The trace clock (process-shared monotonic seconds on Linux).
trace_clock = time.perf_counter

#: The main lane. Worker task spans use the worker's pid as their lane.
MAIN_TID = 0

#: Chrome-trace ``pid`` of the wall-clock lanes.
WALL_PID = 1
#: Chrome-trace ``pid`` of the virtual-clock lanes (the simulation's
#: :class:`~repro.simtime.events.SpanLog`, exported side by side).
VIRTUAL_PID = 2


@dataclass(frozen=True)
class Span:
    """One named wall-clock interval."""

    name: str
    cat: str
    start: float  # trace-clock seconds
    end: float
    tid: int = MAIN_TID
    args: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One zero-width event (e.g. a cache eviction)."""

    name: str
    cat: str
    t: float
    tid: int = MAIN_TID
    args: dict | None = None


class _SpanCM:
    """Context manager measuring one span (allocated per enabled ``span()``)."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args

    def __enter__(self) -> "_SpanCM":
        self._t0 = trace_clock()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.spans.append(
            Span(
                name=self._name,
                cat=self._cat,
                start=self._t0,
                end=trace_clock(),
                tid=self._tid,
                args=self._args,
            )
        )


class _NullCM:
    """The no-op context manager the disabled path hands out (one instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullCM":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_CM = _NullCM()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shared as the :data:`NULL_TRACER` singleton so ``sim.obs.tracer.span``
    is safe to call unconditionally; hot per-client loops should still guard
    with ``if obs.enabled`` and skip building args dicts entirely.
    """

    enabled = False
    spans: tuple = ()
    instants: tuple = ()

    def span(self, name: str, *, cat: str = "sim", tid: int = MAIN_TID, **args):
        return _NULL_CM

    def add_span(self, name, start, end, *, cat="sim", tid=MAIN_TID, **args) -> None:
        pass

    def instant(self, name, *, cat="sim", tid=MAIN_TID, **args) -> None:
        pass

    def name_lane(self, tid, name) -> None:
        pass

    def add_virtual_spans(self, span_log, *, limit=None) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Buffering span recorder with Chrome-trace/JSONL export.

    ``t=0`` of the exported trace is the tracer's construction instant;
    spans are buffered in memory (a span is two floats, two strings, and an
    optional dict — a multi-round mega-fleet trace is tens of MB, not GB)
    and written once at export time.
    """

    enabled = True

    def __init__(self):
        self.epoch = trace_clock()
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: Virtual-clock spans to export side by side (pid 2): tuples of
        #: (name, tid, start_s, end_s, args) on the *virtual* clock.
        self.virtual_spans: list[tuple[str, int, float, float, dict | None]] = []
        self._tid_names: dict[int, str] = {MAIN_TID: "main"}

    # ------------------------------------------------------------ recording

    def span(self, name: str, *, cat: str = "sim", tid: int = MAIN_TID, **args) -> _SpanCM:
        """Context manager recording ``name`` over the ``with`` body."""
        return _SpanCM(self, name, cat, tid, args or None)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "sim",
        tid: int = MAIN_TID,
        **args,
    ) -> None:
        """Record an interval measured elsewhere (worker task spans)."""
        self.spans.append(
            Span(name=name, cat=cat, start=float(start), end=float(end), tid=int(tid), args=args or None)
        )

    def instant(self, name: str, *, cat: str = "sim", tid: int = MAIN_TID, **args) -> None:
        self.instants.append(
            Instant(name=name, cat=cat, t=trace_clock(), tid=int(tid), args=args or None)
        )

    def name_lane(self, tid: int, name: str) -> None:
        """Label a ``tid`` lane in the exported trace (e.g. worker pids)."""
        self._tid_names[int(tid)] = name

    def add_virtual_spans(self, span_log, *, limit: int | None = None) -> None:
        """Mirror a :class:`~repro.simtime.events.SpanLog` into the trace.

        The virtual-clock client activity (train/upload intervals priced by
        the cost model) exports as a second Chrome-trace process so the
        wall-clock and virtual-clock pictures sit side by side in Perfetto.
        ``limit`` keeps mega-fleet traces bounded (first N spans).
        """
        spans = span_log.spans if limit is None else span_log.spans[:limit]
        for s in spans:
            self.virtual_spans.append(
                (s.kind, s.cid, s.start, s.end, {"cid": s.cid, "tag": s.tag})
            )

    # -------------------------------------------------------------- export

    def _lane_metadata(self, tids: set[int]) -> list[dict]:
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {"name": f"wall clock (pid {self.pid})"},
            }
        ]
        for tid in sorted(tids):
            label = self._tid_names.get(tid, f"worker-{tid}")
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": WALL_PID,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        if self.virtual_spans:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": VIRTUAL_PID,
                    "tid": 0,
                    "args": {"name": "virtual clock (simulated seconds as µs)"},
                }
            )
        return events

    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event dict (``json.dump``-ready)."""
        us = 1e6
        events = self._lane_metadata({s.tid for s in self.spans} | {i.tid for i in self.instants})
        for s in self.spans:
            ev = {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start - self.epoch) * us,
                "dur": s.dur * us,
                "pid": WALL_PID,
                "tid": s.tid,
            }
            if s.args:
                ev["args"] = s.args
            events.append(ev)
        for i in self.instants:
            ev = {
                "name": i.name,
                "cat": i.cat,
                "ph": "i",
                "s": "t",
                "ts": (i.t - self.epoch) * us,
                "pid": WALL_PID,
                "tid": i.tid,
            }
            if i.args:
                ev["args"] = i.args
            events.append(ev)
        for name, tid, start, end, args in self.virtual_spans:
            events.append(
                {
                    "name": name,
                    "cat": "virtual",
                    "ph": "X",
                    "ts": start * us,
                    "dur": (end - start) * us,
                    "pid": VIRTUAL_PID,
                    "tid": tid,
                    "args": args or {},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> None:
        """Write the Chrome-trace JSON (open in Perfetto / chrome://tracing)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")


def load_trace(path) -> list[Span]:
    """Read wall-clock spans back from an exported Chrome trace.

    Accepts the Chrome trace event format :meth:`Tracer.export_chrome`
    writes (``{"traceEvents": [...]}``, or a bare event list) and raises
    :class:`ValueError` naming that format for anything else — a
    ``.jsonl`` event stream from an older run, a metrics JSON. Returns
    :class:`Span` objects with times in seconds relative to the trace
    epoch. Virtual-clock (pid 2) events and metadata are skipped — the
    profiler ranks wall-clock cost.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        doc = doc.get("traceEvents")
    if not isinstance(doc, list) or not all(isinstance(ev, dict) for ev in doc):
        raise ValueError(
            f"{path} is not a Chrome trace: expected the JSON --trace writes, "
            '{"traceEvents": [...]} or a bare event list'
        )
    spans = []
    for ev in doc:
        if ev.get("ph") != "X" or ev.get("pid") == VIRTUAL_PID:
            continue
        t0 = ev["ts"] / 1e6
        spans.append(
            Span(
                name=ev["name"],
                cat=ev.get("cat", "sim"),
                start=t0,
                end=t0 + ev.get("dur", 0.0) / 1e6,
                tid=int(ev.get("tid", MAIN_TID)),
                args=ev.get("args") or None,
            )
        )
    return spans
