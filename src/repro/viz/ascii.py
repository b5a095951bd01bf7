"""Terminal rendering: aligned text tables, the comm ledger, the sweep grid,
and the run and sweep summaries the CLI prints.

No matplotlib in this environment, so the figure benches and CLI print
text. Deterministic output makes it testable. The numbers come from the
summary-data layer — :meth:`SweepReport.rows()
<repro.scenarios.report.SweepReport.rows>` for sweeps,
:meth:`History.comm_totals() <repro.fl.history.History.comm_totals>` for the
flow ledger; this module only lays them out.
"""

from __future__ import annotations

__all__ = [
    "ascii_comm_table",
    "ascii_sweep_grid",
    "format_table",
    "fmt_bytes",
    "series_text",
    "summarize_comm",
    "summarize_sweep",
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


def series_text(history, *, every: int = 10, width: int = 40) -> str:
    """ASCII accuracy-vs-round curve (the figure panels, printably)."""
    rounds, accs = history.accuracy_series()
    if rounds.size == 0:
        return "(no evaluations)"
    lines = []
    for r, a in zip(rounds, accs):
        if r % every and r != rounds[-1]:
            continue
        bar = "#" * int(round(a * width))
        lines.append(f"round {int(r):>4d}  acc {a:.3f}  {bar}")
    return "\n".join(lines)


def summarize_comm(history, *, top: int = 5) -> str:
    """Flow-accounting summary of one run: the transport ledger table plus
    the headline totals (wire bytes moved, virtual seconds, effective
    goodput) — what the CLI ``comm`` subcommand prints.
    """
    lines = [ascii_comm_table(history, top=top)]
    totals = history.comm_totals()
    if totals["rounds"] > 0:
        end = history.virtual_end()
        mb = totals["total_bytes"] / 1e6
        lines.append("")
        line = (
            f"{mb:.2f}MB over {int(totals['rounds'])} rounds"
        )
        if end is not None and end > 0:
            line += (
                f"; {end:.1f} virtual seconds"
                f" -> {8.0 * totals['total_bytes'] / end / 1e6:.2f} Mbit/s"
                " effective aggregate throughput"
            )
        lines.append(line)
    return "\n".join(lines)


def summarize_sweep(report, *, target: float | None = None, top: int = 8) -> str:
    """Render a :class:`~repro.scenarios.report.SweepReport` as text tables.

    Three sections: the ``top`` cells ranked by final accuracy (with
    accumulated communication time, virtual end time and — when any cell
    ran hierarchically — the mean per-round backhaul of its slowest edge),
    one marginal table per grid axis whose values each average over more
    than one cell (an axis that labels one cell per value would repeat the
    cell table), and — when ``target`` is given — the virtual
    time-to-target frontier. A trailing line accounts for resume (cells
    run vs loaded from the run store).
    """
    lines = []
    cells = report.rows()
    ranked = sorted(
        (c for c in cells if c["final"] is not None), key=lambda c: -c["final"]
    )[:top]
    hier = any(c["backhaul"] is not None for c in cells)
    headers = ["cell", "rounds", "final_acc", "best_acc", "comm_time", "virtual_time"]
    rows = [
        [
            c["label"], str(c["rounds"]), _num(c["final"]), _num(c["best"]),
            _num(c["comm_time"], 1, "s"), _num(c["virtual_time"], 1, "s"),
        ]
        + ([_num(c["backhaul"], 2, "s")] if hier else [])
        for c in ranked
    ]
    if rows:
        lines.append(f"top cells (of {len(report)}) by final accuracy:")
        lines.append(format_table(headers + (["backhaul/rnd"] if hier else []), rows))
    else:
        lines.append("(no evaluated cells)")

    for axis, values in report.marginals().items():
        if all(stats["n"] == 1 for stats in values.values()):
            continue
        rows = [
            [f"{axis}={value}", _num(stats["mean_final"]), _num(stats["mean_best"]),
             str(int(stats["n"]))]
            for value, stats in values.items()
        ]
        lines.append("")
        lines.append(f"marginal over {axis} (mean across other axes/seeds):")
        lines.append(format_table(["value", "mean_final", "mean_best", "cells"], rows))

    if target is not None:
        rows = [
            [report.label(spec), _num(t, 1, "s")]
            for spec, t in report.time_to_accuracy_frontier(target)
        ]
        lines.append("")
        lines.append(f"virtual time to accuracy >= {target:g}:")
        lines.append(format_table(["cell", "t_to_target"], rows))

    lines.append("")
    lines.append(f"{report.executed} cell(s) run, {report.reused} loaded from store")
    return "\n".join(lines)
