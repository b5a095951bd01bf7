"""Unified observability: wall-clock tracing + metrics, one facade.

Everything the simulator can report about *itself* (as opposed to the
experiment — that's :class:`~repro.fl.history.History`) routes through an
:class:`Obs` bundle:

- ``obs.tracer`` — wall-clock spans (:mod:`repro.obs.tracer`), exported as
  Chrome-trace JSON (Perfetto-openable) and a JSONL event stream;
- ``obs.metrics`` — counters/gauges/histograms with per-round snapshots
  (:mod:`repro.obs.metrics`), exported as JSON and Prometheus text;
- ``obs.enabled`` — the one branch hot paths check.

The default everywhere is :data:`NULL_OBS`: both halves are the shared
null implementations, ``enabled`` is False, and every instrumentation site
degrades to an attribute load plus a branch — an untraced run reaches a
fixed handful of sites per round and none per client step
(``tests/obs/test_null_path_budget.py``). The hard contract, enforced by
``tests/obs/test_determinism.py``:
observability never touches a seeded RNG stream, so histories are
bit-identical with tracing on or off, on every backend, in every protocol
mode.

Wiring: build an :class:`Obs` and hand it to
:func:`repro.simtime.make_simulation` (or the ``Simulation`` classes
directly); the CLI does this for ``--trace``/``--metrics``. After the run,
:meth:`Obs.export` writes every requested artifact.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Instant,
    NullTracer,
    Span,
    Tracer,
    load_trace,
)

__all__ = [
    "Obs",
    "NULL_OBS",
    "make_obs",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Instant",
    "load_trace",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
]


class Obs:
    """One observability bundle: a tracer and a metrics registry.

    ``Obs()`` (no live halves) is disabled; :data:`NULL_OBS` is the shared
    disabled instance every simulation defaults to. ``trace_path`` /
    ``metrics_path`` remember where :meth:`export` should write.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        trace_path: str | None = None,
        metrics_path: str | None = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.enabled = tracer is not None or metrics is not None
        self.trace_path = trace_path
        self.metrics_path = metrics_path

    def export(self) -> list[str]:
        """Write every configured artifact; returns the paths written.

        ``trace_path`` gets the Chrome-trace JSON plus a sibling ``.jsonl``
        event stream; ``metrics_path`` gets the JSON registry dump plus a
        sibling ``.prom`` Prometheus text file.
        """
        written: list[str] = []
        if self.trace_path and isinstance(self.tracer, Tracer):
            self.tracer.export_chrome(self.trace_path)
            written.append(self.trace_path)
            jsonl = str(Path(self.trace_path).with_suffix(".jsonl"))
            self.tracer.export_jsonl(jsonl)
            written.append(jsonl)
        if self.metrics_path and isinstance(self.metrics, MetricsRegistry):
            self.metrics.export_json(self.metrics_path)
            written.append(self.metrics_path)
            prom = str(Path(self.metrics_path).with_suffix(".prom"))
            self.metrics.export_prometheus(prom)
            written.append(prom)
        return written


NULL_OBS = Obs()


def make_obs(trace: str | None = None, metrics: str | None = None) -> Obs:
    """The CLI's builder: live halves only for the paths actually given.

    Returns :data:`NULL_OBS` when neither path is set, so callers can pass
    the result straight to ``make_simulation`` without a None-check.
    """
    if trace is None and metrics is None:
        return NULL_OBS
    return Obs(
        tracer=Tracer() if trace is not None else None,
        metrics=MetricsRegistry() if metrics is not None else None,
        trace_path=trace,
        metrics_path=metrics,
    )
