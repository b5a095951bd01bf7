"""Text summaries of runs and sweeps, next to the paper's reported numbers.

The numbers come from the summary-data layer —
:meth:`SweepReport.rows() <repro.scenarios.report.SweepReport.rows>` for
sweeps, :meth:`History.comm_totals() <repro.fl.history.History.comm_totals>`
for the flow ledger — and the table/cell formatting from
:mod:`repro.viz.ascii`; this module only lays them out.
"""

from __future__ import annotations

from repro.fl.history import History
from repro.viz.ascii import _num, ascii_comm_table, format_table

__all__ = [
    "format_table",
    "series_text",
    "summarize_comm",
    "summarize_sweep",
]


def series_text(history: History, *, every: int = 10, width: int = 40) -> str:
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


def summarize_comm(history: History, *, top: int = 5) -> str:
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
