"""``python3 -m bench --compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload) with both medians and quartiles, the
relative change with its base, and a verdict by the rule of the
choosing-metrics guide (section 6, step 5):

- ``better``       every run of B reads better than every run of A;
- ``worse``        B's median is worse than A's by more than the metric's
                   bound, and the runs either separate or repeat tightly;
- ``unresolved``   A's own spread (quartile distance over median) is wider
                   than the bound and the runs interleave: not "unchanged";
- ``within bound`` otherwise.

Two more rows per workload: the share of failed operations, and whether the
history digests agree (same seed, same arithmetic: every simulated statistic
is then identical, which is what a change meant only to speed the simulator up
must show). Exit status 1 on any ``worse`` or on a larger failed share.
"""

from __future__ import annotations

import json

from bench.metrics import END_TO_END

__all__ = ["verdict", "compare"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The verdict on two summaries (as :func:`bench.metrics.summary` builds
    them, with their ``values``) of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base if base else 0.0
    # In "lower is better" terms: every B below every A.
    b_wins = all(sign * vb < sign * va for vb in b["values"] for va in a["values"])
    a_wins = all(sign * va < sign * vb for vb in b["values"] for va in a["values"])
    spread = (a["q75"] - a["q25"]) / base if base else 0.0
    if b_wins:
        return "better"
    if a_wins and worse_by > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "within bound"


def _fmt(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q25']:.5g}, {s['q75']:.5g}] n={s['n']}"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A = {path_a}  (git {a['manifest'].get('git')}, seed {a['manifest'].get('seed')})")
    print(f"B = {path_b}  (git {b['manifest'].get('git')}, seed {b['manifest'].get('seed')})")
    print(f"{'workload':13s} {'metric':15s} {'A median [q25, q75]':38s} "
          f"{'B median [q25, q75]':38s} {'B vs A':>9s}  verdict (bound)")
    status = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:13s} missing from B")
            status = 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (_unit, better, bound) in END_TO_END.items():
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            word = verdict(sa, sb, better, bound)
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
            print(f"{name:13s} {metric:15s} {_fmt(sa):38s} {_fmt(sb):38s} "
                  f"{change:+8.1%}  {word} ({bound:.0%} of A)")
            if word == "worse":
                status = 1
        fa, fb = (w["failed"] / w["attempted"] for w in (wa, wb))
        larger = fb > fa
        print(f"{name:13s} {'failed_share':15s} {wa['failed']}/{wa['attempted']:<34} "
              f"{wb['failed']}/{wb['attempted']:<34} {'':9s}  {'worse' if larger else 'no larger'}")
        if larger:
            status = 1
        same = wa["digest"] == wb["digest"]
        print(f"{name:13s} {'digest':15s} {str(wa['digest'])[:16]:38s} "
              f"{str(wb['digest'])[:16]:38s} {'':9s}  {'identical' if same else 'different'}")
    return status
