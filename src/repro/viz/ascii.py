"""Terminal plotting: multi-series line charts and bar charts in ASCII.

No matplotlib in this environment, so the figure benches and CLI render
curves as text. Deterministic output makes the charts testable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ascii_plot",
    "ascii_bars",
    "ascii_timeline",
    "ascii_tier_tree",
    "ascii_comm_table",
    "ascii_sweep_grid",
    "format_table",
    "fmt_bytes",
]

_MARKERS = "abcdefghijklmnopqrstuvwxyz"


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def _num(x: float | None, nd: int = 4, unit: str = "") -> str:
    """A table cell: the number at ``nd`` decimals (``unit`` appended), or
    ``--`` for None."""
    return "--" if x is None else f"{x:.{nd}f}{unit}"


def fmt_bytes(n: float) -> str:
    """Human volume: 512B, 24.2kB, 1.5MB, 2.1GB."""
    for cut, suffix in ((1e9, "GB"), (1e6, "MB"), (1e3, "kB")):
        if abs(n) >= cut:
            return f"{n / cut:.3g}{suffix}"
    return f"{n:.3g}B"


def ascii_plot(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    width: int = 70,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named (x, y) series on a shared-axis character grid.

    Each series gets a letter marker; later series overwrite earlier ones on
    collisions. Returns the chart plus a legend.
    """
    if not series:
        raise ValueError("need at least one series")
    if len(series) > len(_MARKERS):
        raise ValueError(f"too many series ({len(series)} > {len(_MARKERS)})")
    if width < 10 or height < 4:
        raise ValueError("width must be >= 10 and height >= 4")

    xs_all = np.concatenate([np.asarray(x, dtype=np.float64) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in series.values()])
    if xs_all.size == 0:
        raise ValueError("series are empty")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for marker, (name, (x, y)) in zip(_MARKERS, series.items()):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"series {name!r}: x/y length mismatch")
        cols = np.clip(((x - x_lo) / (x_hi - x_lo) * (width - 1)).round().astype(int), 0, width - 1)
        rows = np.clip(((y - y_lo) / (y_hi - y_lo) * (height - 1)).round().astype(int), 0, height - 1)
        for r, c in zip(rows, cols):
            grid[height - 1 - r][c] = marker
        legend.append(f"  {marker} = {name}")

    top = f"{y_hi:.3g} ┤"
    bottom = f"{y_lo:.3g} ┤"
    pad = max(len(top), len(bottom))
    lines = []
    for i, row in enumerate(grid):
        prefix = top if i == 0 else (bottom if i == height - 1 else " " * (pad - 1) + "│")
        lines.append(prefix.rjust(pad) + "".join(row))
    lines.append(" " * (pad - 1) + "└" + "─" * width)
    lines.append(" " * pad + f"{x_lo:.3g}".ljust(width - 8) + f"{x_hi:.3g}")
    lines.append(f"{y_label} vs {x_label}")
    lines.extend(legend)
    return "\n".join(lines)


#: Timeline glyph per span kind; later spans overwrite earlier on collision.
_SPAN_GLYPHS = {"train": "█", "upload": "░"}


def ascii_timeline(
    spans,
    *,
    t0: float | None = None,
    t1: float | None = None,
    width: int = 72,
) -> str:
    """Per-client activity timeline from the scheduler's span log.

    ``spans`` is an iterable of :class:`repro.simtime.events.ClientSpan`
    (or anything with ``cid``/``kind``/``start``/``end``); one row per
    client, ``█`` while training, ``░`` while uploading — making stragglers,
    async re-dispatch cadence, and semi-sync deadline cuts visible at a
    glance. ``[t0, t1]`` crops the window (default: the spans' extent).
    """
    spans = list(spans)
    if not spans:
        raise ValueError("need at least one span")
    if width < 10:
        raise ValueError("width must be >= 10")
    lo = min(s.start for s in spans) if t0 is None else float(t0)
    hi = max(s.end for s in spans) if t1 is None else float(t1)
    if hi <= lo:
        hi = lo + 1.0

    cids = sorted({s.cid for s in spans})
    scale = width / (hi - lo)
    rows = {cid: [" "] * width for cid in cids}
    for s in spans:
        glyph = _SPAN_GLYPHS.get(s.kind, "?")
        if s.end < lo or s.start > hi:
            continue
        a = max(int((max(s.start, lo) - lo) * scale), 0)
        b = min(int(np.ceil((min(s.end, hi) - lo) * scale)), width)
        if s.end > s.start and b <= a:  # sub-cell span: still show one cell
            b = min(a + 1, width)
        for c in range(a, b):
            rows[s.cid][c] = glyph
    label_w = len(f"c{cids[-1]}")
    lines = [f"c{cid}".rjust(label_w) + " │" + "".join(row) + "│" for cid, row in rows.items()]
    lines.append(" " * label_w + " └" + "─" * width)
    lines.append(
        " " * (label_w + 2) + f"{lo:.3g}s".ljust(width - 8) + f"{hi:.3g}s"
    )
    lines.append("█ train   ░ upload")
    return "\n".join(lines)


def _fmt_bps(bps: float) -> str:
    """Human bandwidth: 1.2Mb/s, 100Mb/s, 2.5Gb/s."""
    if bps >= 1e9:
        return f"{bps / 1e9:.3g}Gb/s"
    if bps >= 1e6:
        return f"{bps / 1e6:.3g}Mb/s"
    return f"{bps / 1e3:.3g}kb/s"


def ascii_tier_tree(topology, breakdown=None) -> str:
    """Render a cloud → edges → clients tier tree with per-tier timings.

    ``topology`` is a :class:`repro.hier.topology.TierTopology` (duck typed:
    ``groups``, ``client_links``, ``backhaul_links``). ``breakdown`` is the
    optional per-edge timing of one cloud round — an iterable of
    :class:`repro.fl.history.EdgeRecord` (``edge``/``sub_spans``/
    ``backhaul_s``/``end``), as carried by hierarchical round records — and
    adds each edge's sub-round spans and backhaul time next to its links.
    """
    by_edge = {} if breakdown is None else {b.edge: b for b in breakdown}
    lines = ["cloud"]
    num_edges = len(topology.groups)
    for e, group in enumerate(topology.groups):
        last_edge = e == num_edges - 1
        stem = "└─" if last_edge else "├─"
        link = topology.backhaul_links[e]
        backhaul = (
            "free backhaul"
            if link is None
            else f"backhaul {_fmt_bps(link.bandwidth_bps)} {link.latency_s * 1e3:.3g}ms"
        )
        timing = ""
        if e in by_edge:
            b = by_edge[e]
            spans = " ".join(f"{s:.3g}s" for s in b.sub_spans)
            timing = f"   sub-rounds [{spans}]  backhaul {b.backhaul_s:.3g}s  done {b.end:.3g}s"
        lines.append(f" {stem} edge {e}   {backhaul}{timing}")
        trunk = "    " if last_edge else " │  "
        for j, cid in enumerate(group):
            leaf = "└─" if j == len(group) - 1 else "├─"
            cl = topology.client_links[cid]
            lines.append(
                f"{trunk}{leaf} c{cid}  {_fmt_bps(cl.bandwidth_bps)} "
                f"{cl.latency_s * 1e3:.3g}ms"
            )
    return "\n".join(lines)


def ascii_comm_table(history, *, top: int = 5) -> str:
    """End-to-end flow accounting table from a run's transport ledgers.

    One row per direction (wire bytes, transfer count, share of the total)
    out of :meth:`History.comm_totals() <repro.fl.history.History.comm_totals>`,
    plus the ``top`` clients by accumulated uplink bytes
    (:meth:`~repro.fl.history.History.comm_per_client`) — the devices
    actually paying for the run. Records without a ledger (legacy
    histories) are skipped.
    """
    totals = history.comm_totals()
    rounds = totals["rounds"]
    if rounds == 0:
        return "(no flow ledgers recorded)"

    directions = ("uplink", "downlink", "backhaul")
    grand = totals["total_bytes"] or 1.0
    rows = [
        [
            d,
            str(totals[f"{d}_transfers"]),
            fmt_bytes(totals[f"{d}_bytes"]),
            f"{100.0 * totals[f'{d}_bytes'] / grand:.1f}%",
            fmt_bytes(totals[f"{d}_bytes"] / rounds),
        ]
        for d in directions
    ]
    rows.append(
        ["total", str(sum(totals[f"{d}_transfers"] for d in directions)),
         fmt_bytes(totals["total_bytes"]), "100.0%",
         fmt_bytes(totals["total_bytes"] / rounds)]
    )
    lines = [format_table(["direction", "transfers", "bytes", "share", "per round"], rows)]
    per_client = history.comm_per_client()
    if per_client:
        talkers = sorted(per_client.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        lines.append(
            "top uplink clients: "
            + "  ".join(f"c{cid} {fmt_bytes(v)}" for cid, v in talkers)
        )
    return "\n".join(lines)


def ascii_sweep_grid(
    report,
    x_axis: str,
    y_axis: str,
    *,
    metric: str = "final",
) -> str:
    """Render a 2-axis sweep as a value grid: rows = ``y_axis``, columns =
    ``x_axis``, each cell the mean accuracy over every other axis and seed
    (:meth:`SweepReport.grid_means <repro.scenarios.report.SweepReport.grid_means>`,
    whose ``ValueError`` for an unknown ``metric`` or axes no cell carries
    propagates). Cells with no data render ``--``; a shaded mini-bar next
    to each value makes the gradient visible without color.
    """
    xs, ys, means = report.grid_means(x_axis, y_axis, metric)
    lo, hi = min(means.values()), max(means.values())
    span = (hi - lo) or 1.0
    shades = " ░▒▓█"

    def cell(x, y) -> str:
        m = means.get((x, y))
        if m is None:
            return "--"
        shade = shades[int(round((m - lo) / span * (len(shades) - 1)))]
        return f"{m:.4f} {shade}"

    headers = [f"{y_axis} \\ {x_axis}"] + [str(x) for x in xs]
    rows = [[str(y)] + [cell(x, y) for x in xs] for y in ys]
    return "\n".join([
        format_table(headers, rows),
        f"mean {metric} accuracy; shade spans [{lo:.4f}, {hi:.4f}]",
    ])


def ascii_bars(values: dict[str, float], *, width: int = 50, unit: str = "") -> str:
    """Horizontal bar chart for labelled scalars (the Fig. 6 style)."""
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values.values()):
        raise ValueError("bar values must be >= 0")
    peak = max(values.values()) or 1.0
    label_w = max(len(k) for k in values)
    lines = []
    for k, v in values.items():
        bar = "█" * int(round(v / peak * width))
        lines.append(f"{k.ljust(label_w)}  {bar} {v:.3g}{unit}")
    return "\n".join(lines)
