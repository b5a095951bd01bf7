"""Terminal rendering: aligned text tables, the comm ledger and the sweep grid.

No matplotlib in this environment, so the figure benches and CLI print
text. Deterministic output makes it testable.
"""

from __future__ import annotations

__all__ = [
    "ascii_comm_table",
    "ascii_sweep_grid",
    "format_table",
    "fmt_bytes",
]


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
