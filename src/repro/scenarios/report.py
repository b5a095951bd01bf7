"""Cross-run aggregation over a sweep's (spec, history) cells.

A :class:`SweepReport` is the summary-data layer of every multi-run
experiment: :meth:`~SweepReport.rows` derives each cell's headline numbers
once, and everything else reads them — which cells won (the renderers
rank the rows by final accuracy), what each axis did on its own
(:meth:`~SweepReport.marginals` — mean over every other axis and seed),
the two-axis mean grid (:meth:`~SweepReport.grid_means`), and where the
time-to-accuracy frontier lies
(:meth:`~SweepReport.time_to_accuracy_frontier` for a fixed target,
:meth:`~SweepReport.pareto_frontier` for the full accuracy-vs-virtual-time
trade-off). :meth:`~SweepReport.by_axis` hands a one-factor grid back as
``{value: History}``. The renderers hold no arithmetic of their own: text in
:func:`repro.viz.ascii.summarize_sweep` and
:func:`repro.viz.ascii.ascii_sweep_grid`, HTML in
:func:`repro.report.sections.sweep_section`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fl.history import History
from repro.scenarios.grid import cell_label
from repro.scenarios.spec import ScenarioSpec

__all__ = ["SweepReport"]


def _final(h: History) -> float | None:
    try:
        return h.final_accuracy()
    except ValueError:
        return None


def _best(h: History) -> float | None:
    try:
        return h.best_accuracy()
    except ValueError:
        return None


def _mean_backhaul(h: History) -> float | None:
    """Mean per-round edge↔cloud transfer time of the slowest edge (None
    for flat histories, which carry no ``edge_breakdown``)."""
    per_round = [
        max(e.backhaul_s for e in r.edge_breakdown)
        for r in h.records
        if r.edge_breakdown
    ]
    return sum(per_round) / len(per_round) if per_round else None


@dataclass
class SweepReport:
    """The outcome of one sweep: ordered cells plus resume accounting.

    ``executed``/``reused`` count cells run fresh vs loaded from the run
    store (``executed + reused == len(cells)``).
    """

    cells: list[tuple[ScenarioSpec, History]] = field(default_factory=list)
    executed: int = 0
    reused: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    @staticmethod
    def label(spec: ScenarioSpec) -> str:
        """Row label: the cell's grid coordinates, else its name."""
        return cell_label(spec.axes) if spec.axes else spec.name

    def axis_names(self) -> list[str]:
        """Every axis appearing in any cell, in first-seen order."""
        seen: dict[str, None] = {}
        for spec, _ in self.cells:
            for name in spec.axes:
                seen.setdefault(name)
        return list(seen)

    # ----------------------------------------------------------------- rows

    def rows(self, target: float | None = None) -> list[dict]:
        """One plain record per cell, in sweep order — the single place a
        cell's headline numbers are derived.

        Keys: ``label``, ``rounds``, ``final``/``best`` accuracy (None when
        the run never evaluated), ``comm_time`` (accumulated actual
        communication seconds — Table 3's axis), ``virtual_time`` (the
        clock at the last round's end), ``backhaul`` (mean per-round
        edge↔cloud time of the slowest edge; None for flat histories) and,
        given a ``target``, ``t_to_target`` (virtual time when that
        accuracy was first reached; None if never).
        """
        out = []
        for spec, h in self.cells:
            row = {
                "label": self.label(spec),
                "rounds": len(h),
                "final": _final(h),
                "best": _best(h),
                "comm_time": h.time.actual_total,
                "virtual_time": h.virtual_end(),
                "backhaul": _mean_backhaul(h),
            }
            if target is not None:
                row["t_to_target"] = h.simtime_to_accuracy(target)
            out.append(row)
        return out

    def by_axis(self, name: str) -> dict[object, History]:
        """Axis value → history, for a grid in which ``name`` alone tells
        the cells apart (a one-factor comparison: algorithms, γ, modes).

        Raises:
            ValueError: If a cell lacks the axis, or a value labels more
                than one cell (seed replicates or a second axis) — the
                lookup never silently keeps the last one.
        """
        out: dict[object, History] = {}
        for spec, h in self.cells:
            if name not in spec.axes:
                raise ValueError(f"cell {spec.name!r} has no axis {name!r}")
            value = spec.axes[name]
            if value in out:
                raise ValueError(
                    f"{name}={value!r} labels more than one cell; by_axis "
                    "needs a grid that varies this axis alone"
                )
            out[value] = h
        return out

    def marginals(self) -> dict[str, dict[object, dict[str, float]]]:
        """Per-axis value → {mean_final, mean_best, n}, marginalized.

        Each axis value averages over every cell carrying it — i.e. over
        all other axes and seed replicates — the standard reading of a
        factorial sweep. Values keep their first-seen order.
        """
        out: dict[str, dict[object, dict[str, float]]] = {}
        rows = self.rows()
        for axis in self.axis_names():
            buckets: dict[object, list[tuple[float, float]]] = {}
            for (spec, _), row in zip(self.cells, rows):
                if axis not in spec.axes or row["final"] is None:
                    continue
                buckets.setdefault(spec.axes[axis], []).append(
                    (row["final"], row["best"])
                )
            out[axis] = {
                value: {
                    "mean_final": sum(f for f, _ in pairs) / len(pairs),
                    "mean_best": sum(b for _, b in pairs) / len(pairs),
                    "n": float(len(pairs)),
                }
                for value, pairs in buckets.items()
                if pairs
            }
        return out

    def robustness_curve(
        self, axis: str = "adversary_fraction"
    ) -> list[tuple[float, dict[str, float]]]:
        """Accuracy versus attack/fault intensity: the robustness axis.

        Rows are ``(axis value, {mean_final, mean_best, n})`` sorted by
        ascending intensity — marginalized over every other axis and seed,
        so a ``--grid adversary_fraction=0,0.1,0.3`` sweep reads off as one
        degradation curve per aggregator. Empty when no cell carries the
        axis.
        """
        buckets = self.marginals().get(axis, {})
        rows = []
        for value, stats in buckets.items():
            try:
                x = float(value)
            except (TypeError, ValueError):
                continue
            rows.append((x, stats))
        rows.sort(key=lambda r: r[0])
        return rows

    def grid_means(
        self, x_axis: str, y_axis: str, metric: str = "final"
    ) -> tuple[list, list, dict[tuple, float]]:
        """A two-axis view of the sweep: ``(xs, ys, means)``.

        ``means`` maps ``(x, y)`` → mean ``metric`` (``"final"`` or
        ``"best"`` accuracy) over every other axis and seed; ``xs``/``ys``
        list the axis values in first-seen order. Cells that never
        evaluated are skipped, so a coordinate can be missing from
        ``means``.

        Raises:
            ValueError: On an unknown ``metric``, or when no evaluated cell
                carries both axes.
        """
        if metric not in ("final", "best"):
            raise ValueError(f"metric must be 'final' or 'best', got {metric!r}")
        acc: dict[tuple, list[float]] = {}
        xs: dict[object, None] = {}
        ys: dict[object, None] = {}
        for (spec, _), row in zip(self.cells, self.rows()):
            if x_axis not in spec.axes or y_axis not in spec.axes or row[metric] is None:
                continue
            x, y = spec.axes[x_axis], spec.axes[y_axis]
            xs.setdefault(x)
            ys.setdefault(y)
            acc.setdefault((x, y), []).append(row[metric])
        if not acc:
            raise ValueError(f"no cells carry both axes {x_axis!r} and {y_axis!r}")
        return list(xs), list(ys), {k: sum(v) / len(v) for k, v in acc.items()}

    # ------------------------------------------------------------ frontiers

    def time_to_accuracy_frontier(
        self, target: float
    ) -> list[tuple[ScenarioSpec, float | None]]:
        """Cells ordered by virtual time to first reach ``target`` accuracy.

        Cells that never reach it sort last (time ``None``), so the head of
        the list *is* the frontier: the fastest routes to the target.
        """
        times = [row["t_to_target"] for row in self.rows(target)]
        order = sorted(
            range(len(times)),
            key=lambda i: (times[i] is None, times[i] if times[i] is not None else 0.0),
        )
        return [(self.cells[i][0], times[i]) for i in order]

    def pareto_frontier(self) -> list[tuple[ScenarioSpec, History, float, float]]:
        """Non-dominated cells on (total virtual time ↓, best accuracy ↑).

        A cell is on the frontier iff no other cell is at least as accurate
        in strictly less virtual time (and strictly better in one of the
        two). Returned sorted by virtual time.
        """
        points = [
            (spec, h, row["virtual_time"], row["best"])
            for (spec, h), row in zip(self.cells, self.rows())
            if row["virtual_time"] is not None and row["best"] is not None
        ]
        points.sort(key=lambda p: (p[2], -p[3]))
        frontier: list[tuple[ScenarioSpec, History, float, float]] = []
        best_acc = float("-inf")
        for point in points:
            if point[3] > best_acc:
                frontier.append(point)
                best_acc = point[3]
        return frontier

    # ------------------------------------------------------------ exporting

    def to_dict(self) -> dict:
        """JSON-able summary (specs + headline metrics, not full curves)."""
        return {
            "executed": self.executed,
            "reused": self.reused,
            "cells": [
                {
                    "spec": spec.to_dict(),
                    "final_accuracy": row["final"],
                    "best_accuracy": row["best"],
                    "virtual_time": row["virtual_time"],
                    "rounds": row["rounds"],
                }
                for (spec, _), row in zip(self.cells, self.rows())
            ],
        }
