"""Benchmark-side span recorder: who called whom, for how long, net of children.

A :class:`Tracer` keeps one stack of open spans (every workload pins the
serial backend and the serial sweep executor, so there is one thread) and a
list of closed ones. A closed span is the tuple
``(id, layer, start, end, parent id, op id, self seconds)``:

- *self seconds* is the span's duration minus the durations of its direct
  children, so the self times of all spans sum to the time the top-level
  spans cover — layers can be added up without double counting;
- the *op id* is shared by every span of one aggregation round: a ``round``
  span starts a new op, everything beneath it inherits it;
- a call that lands in the layer already on top of the stack (an
  ``ErrorFeedback`` compressor calling its inner ``TopK``) is not a new span:
  it is the same layer doing its own work.

Spans stay in memory; :func:`write_jsonl` dumps them when the run ends. This
is separate from the program's own ``repro.obs.Tracer``, which stays off.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["Tracer", "layer_totals", "write_jsonl", "ROUND_LAYER"]

#: The layer whose spans delimit one operation.
ROUND_LAYER = "round"

# Open-span frame slots.
_ID, _LAYER, _START, _PARENT, _OP, _CHILD_S = range(6)


class Tracer:
    """Records nested spans and work counters; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        #: Work counted at the same boundaries the spans sit on.
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._next_op = 0

    def clear(self) -> None:
        """Forget closed spans and counts (the warm-up's); ids keep rising."""
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.spans.clear()
        self.counts.clear()

    def open(self, layer: str) -> list | None:
        """Open a span; ``None`` when ``layer`` is already the innermost one."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[_LAYER] == layer:
            return None
        if layer == ROUND_LAYER:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent[_OP] if parent is not None else None
        frame = [
            self._next_id,
            layer,
            0.0,
            parent[_ID] if parent is not None else None,
            op,
            0.0,
        ]
        self._next_id += 1
        stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[_LAYER]!r} closed out of order")
        stack.pop()
        duration = end - frame[_START]
        if stack:
            stack[-1][_CHILD_S] += duration
        self.spans.append(
            (
                frame[_ID],
                frame[_LAYER],
                frame[_START],
                end,
                frame[_PARENT],
                frame[_OP],
                duration - frame[_CHILD_S],
            )
        )

    @contextmanager
    def span(self, layer: str):
        """A span around driver code (the wrappers use open/close directly)."""
        frame = self.open(layer)
        try:
            yield
        finally:
            if frame is not None:
                self.close(frame)

    def wrap(self, layer: str, fn, work=None):
        """``fn`` with a ``layer`` span around every call.

        ``work(counts, args, kwargs, result)`` runs after a call that opened
        a span and adds to :attr:`counts` what the call processed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(layer)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if work is not None:
                work(self.counts, args, kwargs, result)
            return result

        return traced


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """``layer -> (summed self seconds, span count)``."""
    totals: dict[str, list] = {}
    for _id, layer, _start, _end, _parent, _op, self_s in spans:
        slot = totals.setdefault(layer, [0.0, 0])
        slot[0] += self_s
        slot[1] += 1
    return {layer: (slot[0], slot[1]) for layer, slot in totals.items()}


def write_jsonl(path, spans, *, origin: float = 0.0, extra: dict | None = None) -> None:
    """Append ``spans`` to ``path``, one JSON object per line, times since ``origin``."""
    extra = extra or {}
    with open(path, "a") as fh:
        for sid, layer, start, end, parent, op, self_s in spans:
            row = {
                **extra,
                "id": sid,
                "layer": layer,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "op": op,
                "self_s": self_s,
            }
            fh.write(json.dumps(row) + "\n")
