"""The paper's shape claims, each stated once, over one grid of runs.

A panel maps each variant — an algorithm, or a value of the one field the
panel sweeps (γ, ``norm_mode``, ``benchmark``, ``required_overlap``, a
server-optimizer label, CR) — to its preset. Table 2 and Figs. 7–9 / 13–15
view dataset × (β, CR) × algorithm, each cell its per-algorithm preset
(FedAvg runs dense, so it has no CR factor, and no baseline carries OPWA's γ:
54 distinct runs); Table 3 adds 60-round panels; Table 4, Figs. 6 and 10–12
and ablations A1–A5 add one panel per sweep, keyed by the artifact's name.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from operator import methodcaller

import numpy as np

from repro.experiments.paper_reference import (
    FIG6_BREAKDOWN, SPEEDUP_RANGE, TABLE2, TABLE3, TABLE4,
)
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
_BETA_CR = tuple(product((0.1, 0.5), (0.1, 0.01)))
#: Table 4's and Fig. 10's panels: CIFAR-10 at each (β, CR).
TABLE4_PANELS = tuple(("table4", b, cr) for b, cr in _BETA_CR)
FIG10_PANELS = tuple(("fig10", b, cr) for b, cr in _BETA_CR)
#: Fig. 6 prices BCRS rounds at β 0.1 for each CR at the paper's ~47 Mbit
#: model message (its ~48 s dense straggler upload at ~1 Mbit/s) while
#: training the CPU-sized model.
FIG6 = ("fig6", 0.1)
PAPER_VOLUME_BITS = 4.7e7
#: Figs. 11 (β; CR 0.1) and 12 (N; β 0.1, CR 0.01): OPWA per γ next to a baseline.
FIG11_PANELS, FIG11_GAMMAS = (("fig11", 0.5), ("fig11", 0.1)), (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
FIG12_PANELS, FIG12_GAMMAS = (("fig12", 16), ("fig12", 20)), (2.0, 5.0, 8.0, 11.0, 14.0)
TABLE4_GAMMAS = (3.0, 5.0, 7.0)
#: Ablations on CIFAR-10 at β 0.1 over 40 rounds, each sweeping one field.
A1, A2, A3, A4, A5 = (("A1", "norm_mode"), ("A2", "required_overlap"), ("A3", "benchmark"),
                      ("A4", "algorithm"), ("A5", "server optimizer"))
#: A5's FedOpt variants. Momentum scales the server step by (1 − m): the
#: momentum sum amplifies the step by 1/(1 − m) on top of OPWA's γ, and
#: unscaled m = 0.9 diverges.
SERVER_OPTIMIZERS = {
    "plain (Alg. 1)": {},
    "FedAvgM m=0.5": dict(server_momentum=0.5, server_step=0.5),
    "FedAvgM m=0.9": dict(server_momentum=0.9, server_step=0.1),
    "FedAdam lr=0.03": dict(server_optimizer="adam", server_step=0.03),
}
#: The paper's numbers per panel: Tables 2 and 4's accuracies, Table 3's seconds.
_T4 = {("table4", *k): accs for k, accs in TABLE4.items()}
_FINAL = {(ds, *k): accs for ds, cells in TABLE2.items() for k, accs in cells.items()} | _T4
_T3 = {p: {a: TABLE3[a][p[2]][0] for a in TABLE3} for p in TABLE3_PANELS}


def _sweep(base, axis: dict) -> dict:
    """Variant → ``base`` with the one field of ``axis`` set to it: the cells of
    ``run_grid(base, axis)``."""
    ((field, values),) = axis.items()
    return {v: base.with_(**{field: v}) for v in values}


def paper_grid() -> dict[tuple, dict]:
    """Panel → variant → preset; Table 3's panels set ``rounds`` and omit BCRS+OPWA,
    and each sweep's panel varies one field of one preset (plus, for Figs. 11–12,
    the baseline it is drawn against)."""
    grid = {}
    for p in PANELS + TABLE3_PANELS:
        algs, extra = (ALGORITHMS, {}) if len(p) == 3 else (ALGORITHMS[:4], {"rounds": p[3]})
        grid[p] = {a: bench_config(p[0], a, beta=p[1], compression_ratio=p[2], **extra)
                   for a in algs}
    for p in TABLE4_PANELS:
        opwa = bench_config("cifar10", "bcrs_opwa", beta=p[1], compression_ratio=p[2])
        grid[p] = _sweep(opwa, {"gamma": TABLE4_GAMMAS})
    bcrs = bench_config("cifar10", "bcrs", beta=FIG6[1], rounds=10,
                        volume_override_bits=PAPER_VOLUME_BITS)
    grid[FIG6] = _sweep(bcrs, {"compression_ratio": (0.01, 0.1)})
    for p in FIG10_PANELS:
        grid[p] = {a: bench_config("cifar10", a, beta=p[1], rounds=50, compression_ratio=p[2])
                   for a in ALGORITHMS[:4]}
    for p in FIG11_PANELS:
        opwa = bench_config("cifar10", "bcrs_opwa", beta=p[1], compression_ratio=0.1)
        grid[p] = {**_sweep(opwa, {"gamma": FIG11_GAMMAS}),
                   "fedavg": bench_config("cifar10", "fedavg", beta=p[1])}
    for p in FIG12_PANELS:
        shape = dict(beta=0.1, compression_ratio=0.01, num_clients=p[1], num_train=1600)
        opwa = bench_config("cifar10", "bcrs_opwa", **shape)
        grid[p] = {**_sweep(opwa, {"gamma": FIG12_GAMMAS}),
                   "topk": bench_config("cifar10", "topk", **shape)}
    shape = dict(beta=0.1, compression_ratio=0.01, rounds=40)
    bcrs = bench_config("cifar10", "bcrs", **shape)
    grid[A1] = _sweep(bcrs, {"norm_mode": ("sum", "max", "none")})
    opwa = bench_config("cifar10", "bcrs_opwa", **shape)
    grid[A2] = _sweep(opwa, {"required_overlap": (1, 2, 3)})
    grid[A3] = _sweep(bcrs, {"benchmark": ("max", "median")})
    opwa = opwa.with_(compression_ratio=0.05)
    grid[A4] = _sweep(opwa, {"algorithm": ("topk", "deadline_topk", "bcrs", "bcrs_opwa")})
    grid[A5] = {label: opwa.with_(**opt) for label, opt in SERVER_OPTIMIZERS.items()}
    return grid


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``f`` maps a panel's number per variant (``of`` its history)
    to values that must all exceed ``bound`` (or reach it, unless ``strict``) for the
    claim to hold there; ``paper`` holds the paper's numbers per panel."""

    name: str
    cells: tuple
    f: Callable[[dict], object]
    of: Callable[[History], object] = History.final_accuracy
    bound: float = 0.0
    strict: bool = True
    paper: dict | None = None

    def score(self, numbers: dict) -> tuple[np.ndarray, bool]:
        v = np.atleast_1d(np.asarray(self.f({a: np.asarray(x, float) for a, x in numbers.items()})))
        return v, bool(np.all(v > self.bound) if self.strict else np.all(v >= self.bound))

    def evaluate(self, runs: dict) -> dict[tuple, tuple[np.ndarray, bool]]:
        """Panel → :meth:`score` of its runs (a zero division scores NaN or inf)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return {c: self.score({a: self.of(h) for a, h in runs[c].items()}) for c in self.cells}


def _panels(datasets=("cifar10", "svhn", "cifar100"), crs=(0.1, 0.01)) -> tuple:
    return tuple(p for p in PANELS if p[0] in datasets and p[2] in crs)


def _gap(hi, lo, cells=PANELS, where="", bound=0.0, strict=True, paper=_FINAL) -> Claim:
    """Final accuracy of ``hi`` minus ``lo`` clears ``bound``."""
    name = f"{hi} - {lo} {'>' if strict else '>='} {bound:g}{where}"
    return Claim(name, cells, lambda a: a[hi] - a[lo], bound=bound, strict=strict, paper=paper)


def _every(a: dict) -> list:
    return list(a.values())


def _best(variants: tuple) -> Callable[[dict], object]:
    """The variant with the highest number (the first of a tie)."""
    return lambda a: max(variants, key=a.get)


def _gain(h: History) -> float:  # last minus first evaluated accuracy
    return np.subtract(*h.accuracy_series()[1][[-1, 0]])


def _comm(h: History) -> float:  # accumulated actual communication time
    return h.time.actual_total


def _saved_per_compress(h: History) -> float:
    b = h.mean_breakdown()
    return np.divide(b["comm_uncompressed_s"] - b["comm_actual_s"], b["compress_s"])


def _mean_ratio(h: History) -> float:  # mean over rounds of the mean realized CR
    return sum(sum(r.ratios) / len(r.ratios) for r in h.records) / len(h.records)


def _fedavg_lag(t: dict) -> float:
    """Fig. 10: FedAvg's comm time to BCRS's final accuracy minus BCRS's (inf: never)."""
    (t_b, acc_b), (t_f, acc_f) = t["bcrs"], t["fedavg"]
    reached = acc_f >= acc_b[-1]
    return t_f[reached][0] - t_b[-1] if reached.any() else np.inf


def _fig6_paper(bar: Callable[[tuple], float]) -> dict:
    return {FIG6: {cr: bar(b) for cr, b in FIG6_BREAKDOWN.items()}}


_C10_CR001 = _panels(("cifar10",), (0.01,))
CLAIMS = (
    _gap("bcrs_opwa", "topk"),
    _gap("fedavg", "topk", _panels(crs=(0.01,)), " at CR 0.01"),
    _gap("bcrs", "topk", _C10_CR001, ", cifar10 at CR 0.01"),
    _gap("bcrs", "topk", _panels(("svhn", "cifar100")), ", svhn and cifar100", -0.05),
    _gap("bcrs_opwa", "bcrs", _panels(("cifar10",)), ", cifar10", -0.02, strict=False),
    _gap("bcrs_opwa", "fedavg", _C10_CR001, ", cifar10 at CR 0.01", -0.15),
    Claim("bcrs_opwa / topk > 1.3, cifar10 at CR 0.01", _C10_CR001,
          lambda a: a["bcrs_opwa"] / a["topk"], bound=1.3, paper=_FINAL),
    Claim("last - first accuracy > 0 of the baselines, cifar10 and svhn",
          _panels(("cifar10", "svhn")), lambda a: [a[x] for x in ALGORITHMS[:4]], of=_gain),
    Claim("best accuracy > 0.03 of fedavg and bcrs, cifar100", _panels(("cifar100",)),
          lambda a: [a["fedavg"], a["bcrs"]], of=History.best_accuracy, bound=0.03),
    Claim("best accuracy >= 0.01 of topk and eftopk, cifar100", _panels(("cifar100",)),
          lambda a: [a["topk"], a["eftopk"]], of=History.best_accuracy, bound=0.01, strict=False),
    Claim(f"best accuracy >= {TARGET:g} within 60 rounds", TABLE3_PANELS,
          _every, of=History.best_accuracy, bound=TARGET, strict=False),
    Claim(f"fedavg / compressed comm time to {TARGET:g} > 1", TABLE3_PANELS,
          lambda t: [t["fedavg"] / t[a] for a in ALGORITHMS[1:4]], of=_tta, bound=1, paper=_T3),
    Claim("topk / bcrs comm time >= 1/1.05 (abstract: {}-{}x)".format(*SPEEDUP_RANGE),
          TABLE3_PANELS, lambda t: t["topk"] / t["bcrs"], of=_tta, bound=1 / 1.05, strict=False,
          paper=_T3),
    Claim("fedavg Max / Min comm time over the run > 1.2", TABLE3_PANELS, lambda r: r["fedavg"],
          of=lambda h: np.divide(h.time.max_total, h.time.min_total), bound=1.2,
          paper={p: {"fedavg": np.divide(*TABLE3["fedavg"][p[2]][1:])} for p in TABLE3_PANELS}),
    Claim("best gamma >= 5 at CR 0.01", TABLE4_PANELS[1::2], _best(TABLE4_GAMMAS), bound=5,
          strict=False, paper=_T4),
    Claim("uncompressed / bcrs comm per round > 1, each CR", (FIG6,), _every,
          of=lambda h: np.divide(h.time.max_total, h.time.actual_total), bound=1,
          paper=_fig6_paper(lambda b: b[2] / b[3])),
    Claim("bcrs comm per round at CR 0.1 / CR 0.01 > 3", (FIG6,), lambda c: c[0.1] / c[0.01],
          of=lambda h: h.mean_breakdown()["comm_actual_s"], bound=3,
          paper=_fig6_paper(lambda b: b[3])),
    Claim("fedavg / bcrs and topk total comm time > 2", FIG10_PANELS,
          lambda t: [t["fedavg"] / t["bcrs"], t["fedavg"] / t["topk"]], of=_comm, bound=2),
    Claim("fedavg - bcrs comm time to bcrs's final accuracy > 0", FIG10_PANELS, _fedavg_lag,
          of=History.accuracy_vs_time),
    Claim("last - first accuracy > 0 of every gamma", FIG11_PANELS,
          lambda a: [a[g] for g in FIG11_GAMMAS], of=_gain),
    Claim("best gamma - fedavg > -0.05", FIG11_PANELS,
          lambda a: max(a[g] for g in FIG11_GAMMAS) - a["fedavg"], bound=-0.05),
    Claim("best gamma - topk > 0", FIG12_PANELS,
          lambda a: max(a[g] for g in FIG12_GAMMAS) - a["topk"]),
    # |S_t| = N·C = N/2, so the optimum sits at γ >= N/4.
    *(Claim(f"best gamma >= |S_t|/2 = {p[1] / 4:g} at N={p[1]}", (p,), _best(FIG12_GAMMAS),
            bound=p[1] / 4, strict=False) for p in FIG12_PANELS),
    Claim("final accuracy > 0.15 of every Norm() mode", (A1,), _every, bound=0.15),
    Claim("final accuracy > 0.2 of every threshold D", (A2,), _every, bound=0.2),
    Claim("max - median rule mean realized CR >= -1e-9", (A3,), lambda r: r["max"] - r["median"],
          of=_mean_ratio, bound=-1e-9, strict=False),
    Claim("final accuracy > 0.15 of both benchmark rules", (A3,), _every, bound=0.15),
    Claim("topk / deadline_topk comm time > 1", (A4,),
          lambda t: t["topk"] / t["deadline_topk"], of=_comm, bound=1),
    _gap("bcrs_opwa", "deadline_topk", (A4,), " at CR 0.05", paper=None),
    Claim("final accuracy > 0.3 of every server optimizer", (A5,), _every, bound=0.3),
)
#: Rows the claims table reports with k/n and nothing asserts: Table 2's
#: remaining ones, Table 4 at CR 0.1, BCRS's time premise (Figs. 1–2: a
#: BCRS round spans no longer than a TopK round; Table 3's speedup in
#: virtual time), and Fig. 6's saved-time-per-compress-second ratio, which
#: cannot fail here: it divides virtual seconds priced at the paper's 47 Mbit
#: message by wall-clock seconds compressing the CPU-sized MLP (tens of
#: thousands against the paper's 137–181).
REPORTED = (
    *(_gap(hi, lo) for hi, lo in [("bcrs", "topk"), ("bcrs_opwa", "bcrs"), ("bcrs", "eftopk")]),
    _gap("bcrs_opwa", "fedavg", _panels(crs=(0.1,)), " at CR 0.1"),
    Claim("best gamma >= 5 at CR 0.1", TABLE4_PANELS[::2], _best(TABLE4_GAMMAS), bound=5,
          strict=False, paper=_T4),
    Claim("topk / bcrs mean virtual round span >= 1", PANELS, lambda s: s["topk"] / s["bcrs"],
          of=lambda h: np.divide(np.float64(h.virtual_end()), len(h)), bound=1, strict=False),
    Claim(f"topk / bcrs virtual time to {TARGET:g} >= 1/1.05", TABLE3_PANELS,
          lambda t: t["topk"] / t["bcrs"], of=methodcaller("simtime_to_accuracy", TARGET),
          bound=1 / 1.05, strict=False),
    Claim("(uncompressed - bcrs comm) / compress time per round > 10, each CR", (FIG6,), _every,
          of=_saved_per_compress, bound=10, paper=_fig6_paper(lambda b: (b[2] - b[3]) / b[0])),
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
            cells.append([" ".join(map(str, key)), str(a), _num(h.final_accuracy()),
                          _num(_FINAL.get(key, {}).get(a)), _num(_tta(h), 1),
                          _num(_T3.get(key, {}).get(a), 1),
                          " ".join(f"{x:.2f}" for i, x in zip(r, y) if i % 10 == 0 or i == r[-1])])
    heads = ["claim", "kind", "holds", "min", "median", "max", "paper holds", "paper median"]
    return "\n\n".join([format_table(heads, rows), format_table(
        ["cell", "variant", "final", "paper", f"s to {TARGET:g}", "paper s", "every 10 rounds"],
        cells)])
