"""HTML section renderers: one per artifact kind, each usable alone.

Each function takes one artifact the stack already produces — a
:class:`~repro.fl.history.History`, a
:class:`~repro.scenarios.report.SweepReport`, a list of wall-clock
:class:`~repro.obs.tracer.Span`, or a :class:`~repro.obs.metrics
.MetricsRegistry` (or its ``to_dict()`` document) — and returns one
``<section>`` fragment of inline SVG + HTML tables.
:func:`repro.report.page.render_report` assembles whichever fragments
exist into one page; everything here is byte-deterministic for fixed
inputs (see :mod:`repro.report.svg`).
"""

from __future__ import annotations

import math

from repro.obs.profile import lane_utilization, profile_spans
from repro.report.svg import (
    esc,
    fmt_num,
    series_color,
    sparkline,
    svg_bars,
    svg_heatmap,
    svg_plot,
    svg_timeline,
)
from repro.viz.ascii import _num, fmt_bytes

__all__ = [
    "manifest_section",
    "history_section",
    "sweep_section",
    "robustness_section",
    "trace_section",
    "metrics_section",
]

#: Sweep axes read as attack/fault intensities: each gets a degradation
#: curve in :func:`robustness_section` when it appears in the grid.
ROBUSTNESS_AXES = (
    "adversary_fraction",
    "drop_prob",
    "truncate_prob",
    "edge_crash_prob",
)


# ------------------------------------------------------------- html helpers


def html_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain table; numeric alignment is handled by the page CSS."""
    head = "".join(f"<th>{esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{esc(c)}</td>" for c in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def legend_html(names: list[str]) -> str:
    """Swatch-per-series legend (only emitted for ≥ 2 series)."""
    if len(names) < 2:
        return ""
    items = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:{series_color(i)}"></span>{esc(name)}</span>'
        for i, name in enumerate(names)
    )
    return f'<div class="legend">{items}</div>'


def figure(title: str, svg: str, *, legend: list[str] | None = None) -> str:
    return (
        f"<figure><figcaption>{esc(title)}</figcaption>"
        + legend_html(legend or [])
        + svg
        + "</figure>"
    )


def _tiles(pairs: list[tuple[str, str]]) -> str:
    """A row of stat tiles: (label, value) pairs."""
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="tile-label">{esc(label)}</div>'
        f'<div class="tile-value">{esc(value)}</div></div>'
        for label, value in pairs
    ) + "</div>"


def _section(anchor: str, heading: str, *parts: str) -> str:
    return (
        f'<section id="{esc(anchor)}"><h2>{esc(heading)}</h2>'
        + "".join(parts)
        + "</section>"
    )


# --------------------------------------------------------------- manifest


def manifest_section(manifest: dict) -> str:
    """The run-manifest header: what was run, under which knobs.

    ``manifest`` is plain key → value data (spec hash, seed, backend, mode,
    git describe, …) supplied by the caller — never computed here, so the
    rendering stays deterministic.
    """
    items = "".join(
        f'<div class="kv"><span class="kv-k">{esc(k)}</span>'
        f'<span class="kv-v">{esc(v)}</span></div>'
        for k, v in manifest.items()
    )
    return f'<section id="manifest"><div class="manifest">{items}</div></section>'


# ---------------------------------------------------------------- history


def history_section(history) -> str:
    """Accuracy curves, loss, per-round comm ledger, staleness — one run.

    Works on any :class:`~repro.fl.history.History`, including legacy ones
    without sim spans or flow ledgers (those charts are simply omitted).
    """
    parts: list[str] = []
    rounds, accs = history.accuracy_series()
    virt = history.virtual_end()
    totals = history.comm_totals()
    tiles = [("rounds", str(len(history)))]
    if accs.size:
        tiles.append(("final accuracy", f"{float(accs[-1]):.4f}"))
        tiles.append(("best accuracy", f"{float(accs.max()):.4f}"))
    if virt is not None:
        tiles.append(("virtual time", f"{virt:.1f}s"))
    if totals["rounds"] > 0:
        tiles.append(("wire volume", fmt_bytes(totals["total_bytes"])))
    parts.append(_tiles(tiles))

    if accs.size:
        parts.append(figure(
            "Accuracy vs round",
            svg_plot({"accuracy": (rounds, accs)}, x_label="round", y_label="accuracy"),
        ))
        t, a = history.accuracy_vs_simtime()
        if t.size:
            parts.append(figure(
                "Accuracy vs virtual time",
                svg_plot(
                    {"accuracy": (t, a)},
                    x_label="virtual seconds", y_label="accuracy",
                    kinds={"accuracy": "step"},
                ),
            ))

    losses = [(r.round_index, r.train_loss) for r in history.records]
    if losses:
        lx, ly = zip(*losses)
        parts.append(figure(
            "Train loss vs round",
            svg_plot({"train loss": (lx, ly)}, x_label="round", y_label="loss"),
        ))

    comm_rows = [(r.round_index, r.comm) for r in history.records if r.comm is not None]
    if comm_rows:
        series = {}
        for direction in ("uplink", "downlink", "backhaul"):
            ys = [getattr(c, f"{direction}_bits") / 8.0 for _, c in comm_rows]
            if any(ys):
                series[direction] = ([ri for ri, _ in comm_rows], ys)
        if series:
            parts.append(figure(
                "Comm ledger: wire bytes per round",
                svg_plot(
                    series, x_label="round", y_label="bytes",
                    y_fmt=fmt_bytes,
                ),
                legend=list(series),
            ))
        rows = [
            [
                direction,
                str(totals[f"{direction}_transfers"]),
                fmt_bytes(totals[f"{direction}_bytes"]),
                fmt_bytes(totals[f"{direction}_bytes"] / totals["rounds"]),
            ]
            for direction in ("uplink", "downlink", "backhaul")
        ]
        parts.append(html_table(["direction", "transfers", "bytes", "per round"], rows))

    stale = [
        (r.round_index, r.mean_staleness)
        for r in history.records
        if r.mean_staleness is not None
    ]
    if stale:
        sx, sy = zip(*stale)
        parts.append(figure(
            "Mean staleness vs round",
            svg_plot({"staleness": (sx, sy)}, x_label="round", y_label="model-version lag"),
        ))
    return _section("history", "Run history", *parts)


# ------------------------------------------------------------------ sweep


def sweep_section(
    report,
    *,
    target: float | None = None,
    top: int = 10,
) -> str:
    """Best-cell ranking, per-axis marginals, frontiers, and the grid.

    Renders a :class:`~repro.scenarios.report.SweepReport`: ranking table,
    one small-multiple bar chart per axis (mean final accuracy per value),
    the accuracy-vs-virtual-time Pareto frontier (scatter + step), the
    time-to-``target`` frontier when a target is given, and — when the grid
    has ≥ 2 axes — the first two axes as a heatmap.
    """
    parts = [_tiles([
        ("cells", str(len(report))),
        ("executed", str(report.executed)),
        ("loaded from store", str(report.reused)),
        ("axes", ", ".join(report.axis_names()) or "--"),
    ])]

    cells = report.rows()
    ranked = sorted(
        (c for c in cells if c["final"] is not None), key=lambda c: -c["final"]
    )[:top]
    if ranked:
        rows = [
            [
                c["label"], str(c["rounds"]), _num(c["final"]), _num(c["best"]),
                _num(c["virtual_time"], 1, "s"),
            ]
            for c in ranked
        ]
        parts.append(f"<h3>Top cells (of {len(report)}) by final accuracy</h3>")
        parts.append(html_table(
            ["cell", "rounds", "final_acc", "best_acc", "virtual_time"], rows
        ))
    else:
        parts.append('<p class="muted">No evaluated cells.</p>')

    marginals = report.marginals()
    charts = []
    for axis, values in marginals.items():
        if not values:
            continue
        charts.append(figure(
            f"Marginal over {axis} (mean final accuracy)",
            svg_bars(
                {str(v): stats["mean_final"] for v, stats in values.items()},
                width=420, fmt=lambda x: f"{x:.4f}",
            ),
        ))
    if charts:
        parts.append("<h3>Per-axis marginals</h3>")
        parts.append('<div class="multiples">' + "".join(charts) + "</div>")

    pareto = report.pareto_frontier()
    if pareto:
        all_pts = [
            (c["virtual_time"], c["best"])
            for c in cells
            if c["virtual_time"] is not None and c["best"] is not None
        ]
        series = {"cells": tuple(zip(*all_pts))} if all_pts else {}
        series["frontier"] = (
            [t for *_, t, _ in pareto], [a for *_, _, a in pareto]
        )
        parts.append(figure(
            "Pareto frontier: best accuracy vs virtual time",
            svg_plot(
                series, x_label="virtual seconds", y_label="best accuracy",
                kinds={"cells": "scatter", "frontier": "step"},
            ),
            legend=list(series),
        ))

    if target is not None:
        frontier = report.time_to_accuracy_frontier(target)
        reached = {
            report.label(spec): t for spec, t in frontier if t is not None
        }
        parts.append(f"<h3>Virtual time to accuracy ≥ {target:g}</h3>")
        if reached:
            parts.append(figure(
                f"Time to accuracy ≥ {target:g} (lower is better)",
                svg_bars(reached, unit="s", fmt=lambda x: f"{x:.1f}"),
            ))
        missed = [report.label(spec) for spec, t in frontier if t is None]
        if missed:
            parts.append(
                '<p class="muted">never reached: ' + esc(", ".join(missed)) + "</p>"
            )

    axes = report.axis_names()
    if len(axes) >= 2:
        x_axis, y_axis = axes[0], axes[1]
        try:
            xs, ys, means = report.grid_means(x_axis, y_axis)
        except ValueError:
            pass  # no evaluated cell carries both axes: no grid to draw
        else:
            parts.append(figure(
                f"Grid: mean final accuracy over {y_axis} × {x_axis}",
                svg_heatmap(
                    xs, ys, means,
                    x_label=x_axis, y_label=y_axis, fmt=lambda v: f"{v:.4f}",
                ),
            ))
    return _section("sweep", "Sweep", *parts)


def robustness_section(report) -> str:
    """Accuracy-degradation curves over the sweep's robustness axes.

    One chart per :data:`ROBUSTNESS_AXES` member present in the grid
    (byzantine fraction, drop/truncate probability, edge crash
    probability): mean final/best accuracy at each intensity, marginalized
    over every other axis and seed — e.g. a
    ``--grid adversary_fraction=0,0.1,0.3 aggregator=mean,trimmed_mean``
    sweep reads off as how fast each aggregation rule degrades under
    attack. Returns ``""`` when the sweep carries no robustness axis, so
    the page assembler can call it unconditionally.
    """
    parts: list[str] = []
    for axis in ROBUSTNESS_AXES:
        curve = report.robustness_curve(axis)
        if not curve:
            continue
        xs = [x for x, _ in curve]
        finals = [stats["mean_final"] for _, stats in curve]
        bests = [stats["mean_best"] for _, stats in curve]
        parts.append(figure(
            f"Accuracy vs {axis}",
            svg_plot(
                {"mean final": (xs, finals), "mean best": (xs, bests)},
                x_label=axis, y_label="accuracy",
            ),
            legend=["mean final", "mean best"],
        ))
        parts.append(html_table(
            [axis, "mean_final", "mean_best", "cells"],
            [
                [f"{x:g}", _num(stats["mean_final"]), _num(stats["mean_best"]),
                 str(int(stats["n"]))]
                for x, stats in curve
            ],
        ))
    if not parts:
        return ""
    return _section("robustness", "Robustness", *parts)


# ------------------------------------------------------------------ trace


#: Spans drawn per timeline lane (earliest first); the rest are counted.
_MAX_SPANS_PER_LANE = 400


def trace_section(
    spans,
    *,
    top: int = 10,
    max_lanes: int = 12,
) -> str:
    """Span timeline, hot-spot table, lane utilization — one trace.

    ``spans`` are wall-clock :class:`~repro.obs.tracer.Span` objects (as
    returned by :func:`~repro.obs.tracer.load_trace` or read off a live
    :class:`~repro.obs.tracer.Tracer`). Lanes and per-lane spans are capped
    deterministically (lowest tids, earliest spans) so mega-fleet traces
    render bounded pages; the caps are stated in the rendered output.
    """
    spans = list(spans)
    if not spans:
        return _section("trace", "Trace", '<p class="muted">No wall-clock spans.</p>')
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = t1 - t0

    by_tid: dict[int, list] = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    tids = sorted(by_tid)
    shown_tids = tids[:max_lanes]
    lanes = []
    clipped = len(tids) - len(shown_tids)
    for tid in shown_tids:
        lane = sorted(by_tid[tid], key=lambda s: (s.start, s.end, s.name))
        if len(lane) > _MAX_SPANS_PER_LANE:
            clipped += 1  # count lanes with clipped spans too
            lane = lane[:_MAX_SPANS_PER_LANE]
        lanes.append((
            "main" if tid == 0 else f"lane {tid}",
            [(s.start - t0, s.end - t0, s.name, s.cat) for s in lane],
        ))

    parts = [_tiles([
        ("spans", str(len(spans))),
        ("lanes", str(len(tids))),
        ("extent", f"{extent:.3f}s"),
    ])]
    parts.append(figure(
        "Wall-clock span timeline (hover for span details)",
        svg_timeline(lanes, t0=0.0, t1=extent, t_fmt=lambda v: f"{v:.3f}"),
    ))
    if clipped:
        parts.append(
            f'<p class="muted">timeline clipped to the first {max_lanes} lanes / '
            f"{_MAX_SPANS_PER_LANE} spans per lane; the hot-spot table below "
            "covers the full trace.</p>"
        )

    spots = profile_spans(spans, top=top)
    rows = []
    for h in spots:
        share = 100.0 * h.self_s / extent if extent > 0 else 0.0
        rows.append([
            h.name, h.cat, str(h.count), f"{h.self_s:.3f}", f"{h.total_s:.3f}",
            f"{h.mean_s * 1e3:.2f}", f"{h.max_s * 1e3:.2f}", f"{share:.1f}%",
        ])
    parts.append(f"<h3>Hot spots (top {top} by self time)</h3>")
    parts.append(html_table(
        ["span", "cat", "count", "self s", "total s", "mean ms", "max ms", "self %"],
        rows,
    ))

    util = lane_utilization(spans)
    parts.append("<h3>Lane utilization (busy fraction of the trace extent)</h3>")
    parts.append(figure(
        "Lane utilization",
        svg_bars(
            {
                ("main" if tid == 0 else f"lane {tid}"): 100.0 * frac
                for tid, frac in util.items()
            },
            unit="%", fmt=lambda x: f"{x:.1f}", slot=2,
        ),
    ))
    return _section("trace", "Trace", *parts)


# ---------------------------------------------------------------- metrics


def _series_name(name: str, labels: dict) -> str:
    """``name{k=v}`` — must match MetricsRegistry's snapshot keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _histogram_quantile(row: dict, q: float) -> float | None:
    """Estimate quantile ``q`` from a to_dict histogram row (buckets +
    min/max), interpolating linearly inside the winning bucket."""
    count = row.get("count", 0)
    if not count:
        return None
    target = q * count
    cum = 0
    lo = row.get("min") or 0.0
    for bucket in row["buckets"]:
        le, c = bucket["le"], bucket["count"]
        if c:
            if cum + c >= target:
                hi = row.get("max") if le == math.inf else le
                if hi is None:
                    return lo
                observed_max = row.get("max")
                if observed_max is not None:
                    hi = min(hi, observed_max)  # bucket bound can be looser
                frac = (target - cum) / c
                return lo + frac * (max(hi, lo) - lo)
            lo = le if le != math.inf else lo
        cum += c
    return row.get("max")


def metrics_section(metrics) -> str:
    """Per-round sparklines and distribution summaries — one registry.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` or its
    ``to_dict()`` document (the ``--metrics`` JSON export). Counters and
    histograms plot their per-round *delta* (what happened that round);
    gauges plot the snapshot value as-is. Histogram rows additionally get
    count/mean/min/max and interpolated p50/p90/p99 estimates.
    """
    doc = metrics.to_dict() if hasattr(metrics, "to_dict") else metrics
    rows_by_series = {
        _series_name(row["name"], row.get("labels", {})): row
        for row in doc.get("metrics", [])
    }
    snapshots = doc.get("snapshots", [])

    parts = [_tiles([
        ("instruments", str(len(rows_by_series))),
        ("snapshots", str(len(snapshots))),
    ])]

    if snapshots:
        series_names: dict[str, None] = {}
        for snap in snapshots:
            for name in snap["values"]:
                series_names.setdefault(name)
        table_rows = []
        for name in series_names:
            values = [snap["values"].get(name, 0.0) for snap in snapshots]
            row = rows_by_series.get(name)
            kind = row["kind"] if row else "counter"
            if kind in ("counter", "histogram"):
                plotted = [values[0]] + [
                    b - a for a, b in zip(values, values[1:])
                ]
                shown_kind = f"{kind} Δ/round"
            else:
                plotted = values
                shown_kind = kind
            cell = (
                f"<tr><td>{esc(name)}</td><td>{esc(shown_kind)}</td>"
                f"<td>{sparkline(plotted)}</td>"
                f"<td>{esc(fmt_num(values[-1]))}</td></tr>"
            )
            table_rows.append(cell)
        parts.append("<h3>Per-round series</h3>")
        parts.append(
            "<table><thead><tr><th>series</th><th>kind</th><th>per-round</th>"
            "<th>last</th></tr></thead><tbody>"
            + "".join(table_rows)
            + "</tbody></table>"
        )

    hist_rows = []
    for name, row in rows_by_series.items():
        if row["kind"] != "histogram":
            continue
        hist_rows.append([
            name, str(row["count"]), fmt_num(row["mean"]),
            "--" if row["min"] is None else fmt_num(row["min"]),
            "--" if row["max"] is None else fmt_num(row["max"]),
            _fmt_q(_histogram_quantile(row, 0.50)),
            _fmt_q(_histogram_quantile(row, 0.90)),
            _fmt_q(_histogram_quantile(row, 0.99)),
        ])
    if hist_rows:
        parts.append("<h3>Histograms</h3>")
        parts.append(html_table(
            ["histogram", "count", "mean", "min", "max", "~p50", "~p90", "~p99"],
            hist_rows,
        ))

    gauge_rows = [
        [name, fmt_num(row["value"]), "--" if row.get("peak") is None else fmt_num(row["peak"])]
        for name, row in rows_by_series.items()
        if row["kind"] == "gauge"
    ]
    if gauge_rows:
        parts.append("<h3>Gauges</h3>")
        parts.append(html_table(["gauge", "value", "peak"], gauge_rows))
    return _section("metrics", "Metrics", *parts)


def _fmt_q(x: float | None) -> str:
    return "--" if x is None else fmt_num(x)
