"""Hot-spot ranking over an exported trace.

:func:`profile_spans` aggregates a trace's wall-clock spans by name and
ranks them by **self time** — each span's duration minus the spans nested
inside it on the same lane — so a parent phase ("round") does not absorb
the credit for its children ("exec.round", "aggregate"). This is the
profile-then-optimize entry point the ROADMAP's hot-path item asks for:
``python -m repro profile trace.json`` prints the table.

:func:`lane_utilization` reports per-lane busy fractions (union of span
coverage over the trace's extent), which for process-backend traces is the
per-worker utilization — idle lanes mean the round's critical path is one
straggler task or the serial section between fan-outs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import Span

__all__ = ["HotSpot", "profile_spans", "lane_utilization", "format_profile"]


@dataclass(frozen=True)
class HotSpot:
    """Aggregated cost of one span name across the trace."""

    name: str
    cat: str
    count: int
    total_s: float  # inclusive wall time
    self_s: float  # exclusive wall time (minus nested same-lane spans)
    mean_s: float
    max_s: float


def _self_times(spans: list[Span]) -> list[float]:
    """Exclusive duration of each span (same order as ``spans``).

    Spans are grouped per lane; within a lane, a stack over the spans
    sorted by ``(start, -end)`` attributes each span's duration to itself
    minus the durations of spans strictly nested inside it. Overlapping
    non-nested spans (possible across worker lanes, not within one) are
    treated as siblings.
    """
    self_s = [0.0] * len(spans)
    by_tid: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s.tid, []).append(i)
    for indices in by_tid.values():
        order = sorted(indices, key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []  # indices of currently-open enclosing spans
        for i in order:
            s = spans[i]
            while stack and spans[stack[-1]].end <= s.start:
                stack.pop()
            self_s[i] += s.dur
            if stack and spans[stack[-1]].end >= s.end:
                self_s[stack[-1]] -= s.dur  # nested: parent loses the overlap
            stack.append(i)
    return self_s


def profile_spans(spans: list[Span], *, top: int | None = None) -> list[HotSpot]:
    """Rank span names by self time (descending)."""
    self_s = _self_times(spans)
    agg: dict[str, dict] = {}
    for s, own in zip(spans, self_s):
        row = agg.get(s.name)
        if row is None:
            row = agg[s.name] = {
                "cat": s.cat, "count": 0, "total": 0.0, "self": 0.0, "max": 0.0,
            }
        row["count"] += 1
        row["total"] += s.dur
        row["self"] += own
        if s.dur > row["max"]:
            row["max"] = s.dur
    spots = [
        HotSpot(
            name=name,
            cat=row["cat"],
            count=row["count"],
            total_s=row["total"],
            self_s=row["self"],
            mean_s=row["total"] / row["count"],
            max_s=row["max"],
        )
        for name, row in agg.items()
    ]
    spots.sort(key=lambda h: h.self_s, reverse=True)
    return spots if top is None else spots[:top]


def lane_utilization(spans: list[Span]) -> dict[int, float]:
    """Busy fraction per lane: union span coverage / trace extent."""
    if not spans:
        return {}
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = t1 - t0
    if extent <= 0:
        return {s.tid: 0.0 for s in spans}
    by_tid: dict[int, list[Span]] = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    out: dict[int, float] = {}
    for tid, lane in sorted(by_tid.items()):
        lane.sort(key=lambda s: s.start)
        busy = 0.0
        cur0, cur1 = lane[0].start, lane[0].end
        for s in lane[1:]:
            if s.start > cur1:
                busy += cur1 - cur0
                cur0, cur1 = s.start, s.end
            elif s.end > cur1:
                cur1 = s.end
        busy += cur1 - cur0
        out[tid] = busy / extent
    return out


def format_profile(spans: list[Span], *, top: int = 10) -> str:
    """The ``repro profile`` report: hot-spot table + lane utilization."""
    if not spans:
        return "trace contains no wall-clock spans"
    spots = profile_spans(spans, top=top)
    extent = max(s.end for s in spans) - min(s.start for s in spans)
    lines = [
        f"{'span':<22} {'count':>7} {'self s':>9} {'total s':>9} "
        f"{'mean ms':>9} {'max ms':>9} {'self %':>7}",
        "-" * 78,
    ]
    for h in spots:
        share = 100.0 * h.self_s / extent if extent > 0 else 0.0
        lines.append(
            f"{h.name:<22} {h.count:>7} {h.self_s:>9.3f} {h.total_s:>9.3f} "
            f"{h.mean_s * 1e3:>9.2f} {h.max_s * 1e3:>9.2f} {share:>6.1f}%"
        )
    util = lane_utilization(spans)
    lines.append("")
    lines.append(f"trace extent: {extent:.3f}s over {len(util)} lane(s)")
    for tid, frac in util.items():
        lines.append(f"  lane {tid:>7}: {100.0 * frac:5.1f}% busy")
    return "\n".join(lines)
