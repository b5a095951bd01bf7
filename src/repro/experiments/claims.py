"""The paper's shape claims, each stated once, over one grid of runs: Table 2
and Figs. 7–9 / 13–15 view dataset × (β, CR) × algorithm, each cell its
per-algorithm preset (FedAvg runs dense, so it has no CR factor, and no
baseline carries OPWA's γ: 54 distinct runs); Table 3 adds 60-round panels.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from operator import methodcaller

import numpy as np

from repro.experiments.paper_reference import SPEEDUP_RANGE, TABLE2, TABLE3
from repro.experiments.presets import bench_config
from repro.fl.history import History
from repro.viz.ascii import _num, format_table

__all__ = ["CLAIMS", "REPORTED", "Claim", "claims_table", "paper_grid"]

ALGORITHMS = ("fedavg", "topk", "eftopk", "bcrs", "bcrs_opwa")
#: Table 2's panels, (dataset, β, CR), in the paper's order.
PANELS = tuple(product(("cifar10", "svhn", "cifar100"), (0.1, 0.5), (0.1, 0.01)))
#: Table 3's panels, (dataset, β, CR, rounds): communication time to TARGET.
TABLE3_PANELS = (("cifar10", 0.1, 0.1, 60), ("cifar10", 0.1, 0.01, 60))
TARGET = 0.40
_tta = methodcaller("time_to_accuracy", TARGET)
#: The paper's numbers per panel: Table 2's accuracies, Table 3's seconds.
_T2 = {(ds, *k): accs for ds, cells in TABLE2.items() for k, accs in cells.items()}
_T3 = {p: {a: TABLE3[a][p[2]][0] for a in TABLE3} for p in TABLE3_PANELS}


def paper_grid() -> dict[tuple, dict]:
    """Panel → algorithm → preset; Table 3's panels set ``rounds`` and omit BCRS+OPWA."""
    grid = {}
    for p in PANELS + TABLE3_PANELS:
        algs, extra = (ALGORITHMS, {}) if len(p) == 3 else (ALGORITHMS[:4], {"rounds": p[3]})
        grid[p] = {a: bench_config(p[0], a, beta=p[1], compression_ratio=p[2], **extra)
                   for a in algs}
    return grid


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``f`` maps a panel's number per algorithm (``of`` its history)
    to values that must all exceed ``bound`` (or reach it, unless ``strict``) for the
    claim to hold there; ``paper`` holds the paper's numbers per panel."""

    name: str
    cells: tuple
    f: Callable[[dict], object]
    of: Callable[[History], float] = History.final_accuracy
    bound: float = 0.0
    strict: bool = True
    paper: dict | None = None

    def score(self, numbers: dict) -> tuple[np.ndarray, bool]:
        v = np.atleast_1d(np.asarray(self.f({a: np.float64(x) for a, x in numbers.items()})))
        return v, bool(np.all(v > self.bound) if self.strict else np.all(v >= self.bound))

    def evaluate(self, runs: dict) -> dict[tuple, tuple[np.ndarray, bool]]:
        """Panel → :meth:`score` of its runs (a zero division scores NaN or inf)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return {c: self.score({a: self.of(h) for a, h in runs[c].items()}) for c in self.cells}


def _panels(datasets=("cifar10", "svhn", "cifar100"), crs=(0.1, 0.01)) -> tuple:
    return tuple(p for p in PANELS if p[0] in datasets and p[2] in crs)


def _gap(hi, lo, cells=PANELS, where="", bound=0.0, strict=True) -> Claim:
    """Final accuracy of ``hi`` minus ``lo`` clears ``bound``."""
    name = f"{hi} - {lo} {'>' if strict else '>='} {bound:g}{where}"
    return Claim(name, cells, lambda a: a[hi] - a[lo], bound=bound, strict=strict, paper=_T2)


_C10_CR001 = _panels(("cifar10",), (0.01,))
CLAIMS = (
    _gap("bcrs_opwa", "topk"),
    _gap("fedavg", "topk", _panels(crs=(0.01,)), " at CR 0.01"),
    _gap("bcrs", "topk", _C10_CR001, ", cifar10 at CR 0.01"),
    _gap("bcrs", "topk", _panels(("svhn", "cifar100")), ", svhn and cifar100", -0.05),
    _gap("bcrs_opwa", "bcrs", _panels(("cifar10",)), ", cifar10", -0.02, strict=False),
    _gap("bcrs_opwa", "fedavg", _C10_CR001, ", cifar10 at CR 0.01", -0.15),
    Claim("bcrs_opwa / topk > 1.3, cifar10 at CR 0.01", _C10_CR001,
          lambda a: a["bcrs_opwa"] / a["topk"], bound=1.3, paper=_T2),
    Claim("last - first accuracy > 0 of the baselines, cifar10 and svhn",
          _panels(("cifar10", "svhn")), lambda a: [a[x] for x in ALGORITHMS[:4]],
          of=lambda h: np.subtract(*h.accuracy_series()[1][[-1, 0]])),
    Claim("best accuracy > 0.03 of fedavg and bcrs, cifar100", _panels(("cifar100",)),
          lambda a: [a["fedavg"], a["bcrs"]], of=History.best_accuracy, bound=0.03),
    Claim("best accuracy >= 0.01 of topk and eftopk, cifar100", _panels(("cifar100",)),
          lambda a: [a["topk"], a["eftopk"]], of=History.best_accuracy, bound=0.01, strict=False),
    Claim(f"best accuracy >= {TARGET:g} within 60 rounds", TABLE3_PANELS,
          lambda a: list(a.values()), of=History.best_accuracy, bound=TARGET, strict=False),
    Claim(f"fedavg / compressed comm time to {TARGET:g} > 1", TABLE3_PANELS,
          lambda t: [t["fedavg"] / t[a] for a in ALGORITHMS[1:4]], of=_tta, bound=1, paper=_T3),
    Claim("topk / bcrs comm time >= 1/1.05 (abstract: {}-{}x)".format(*SPEEDUP_RANGE),
          TABLE3_PANELS, lambda t: t["topk"] / t["bcrs"], of=_tta, bound=1 / 1.05, strict=False,
          paper=_T3),
    Claim("fedavg Max / Min comm time over the run > 1.2", TABLE3_PANELS, lambda r: r["fedavg"],
          of=lambda h: np.divide(h.time.max_total, h.time.min_total), bound=1.2,
          paper={p: {"fedavg": np.divide(*TABLE3["fedavg"][p[2]][1:])} for p in TABLE3_PANELS}),
)
#: Table 2's remaining rows: the claims table reports them with k/n; nothing asserts them.
REPORTED = (
    *(_gap(hi, lo) for hi, lo in [("bcrs", "topk"), ("bcrs_opwa", "bcrs"), ("bcrs", "eftopk")]),
    _gap("bcrs_opwa", "fedavg", _panels(crs=(0.1,)), " at CR 0.1"),
)


def _summary(scores: list) -> list[str]:  # holds in k/n panels, min, median, max
    v = np.concatenate([v for v, _ in scores])
    return [f"{sum(ok for _, ok in scores)}/{len(scores)}",
            *(_num(x, 3) for x in (v.min(), np.median(v), v.max()))]


def claims_table(runs: dict) -> str:
    """Per claim over the runs of :func:`paper_grid`: the panels it holds in and its
    min/median/max, next to the paper's; per cell: final accuracy and seconds to TARGET
    next to the paper's, and accuracy every 10 rounds (the figure panels)."""
    rows = []
    for kind, c in [("assert", c) for c in CLAIMS] + [("report", c) for c in REPORTED]:
        paper = _summary([c.score(c.paper[p]) for p in c.cells]) if c.paper else ["--"] * 4
        rows.append([c.name, kind, *_summary(list(c.evaluate(runs).values())), paper[0], paper[2]])
    cells = []
    for key, panel in runs.items():
        for a, h in panel.items():
            r, y = h.accuracy_series()
            cells.append([" ".join(map(str, key)), a, _num(h.final_accuracy()),
                          _num(_T2.get(key, {}).get(a)), _num(_tta(h), 1),
                          _num(_T3.get(key, {}).get(a), 1),
                          " ".join(f"{x:.2f}" for i, x in zip(r, y) if i % 10 == 0 or i == r[-1])])
    heads = ["claim", "kind", "holds", "min", "median", "max", "paper holds", "paper median"]
    return "\n\n".join([format_table(heads, rows), format_table(
        ["cell", "algorithm", "final", "paper", f"s to {TARGET:g}", "paper s", "every 10 rounds"],
        cells)])
