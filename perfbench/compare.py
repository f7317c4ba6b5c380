"""Order statistics for one run and the comparison of two result files.

A result file holds one JSON record per line, appended by
`run.py --out FILE`.  Compare mode pairs the i-th untraced record of a
workload in file A (the parent) with the i-th in file B (the change), so
runs should be made in interleaved pairs, alternating which side runs
first.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict


def nearest_rank(sorted_values, pct):
    """(value, rank) of the pct-th percentile by the nearest-rank rule;
    len - rank values lie beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], rank


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, better):
    """improved / worse / unresolved / unchanged for one metric.

    improved: at least ten pairs, the change wins nine tenths of them (ties
    count for neither) and the medians differ by more than the parent's
    quartile distance.  worse: the change's median is worse than the
    parent's by more than bound (a share of the parent's median).
    unresolved: neither, but a side's quartile distance exceeds the bound
    and some run of the change does not beat every run of the parent.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_by = sign * (cmed - pmed) / pmed
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cmed - pmed) < 0 and abs(cmed - pmed) > pq3 - pq1):
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed) > bound and not (
            max(sign * v for v in change) < min(sign * v for v in parent)):
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
        "wins": wins, "pairs": len(pairs), "worse_by": worse_by, "verdict": label,
    }


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a, path_b, spec, out=print):
    """Print the per-workload, per-metric comparison; returns an exit code."""
    records = {"A": load(path_a), "B": load(path_b)}
    backends = {r["env"]["kernel_backend"] for rs in records.values() for r in rs}
    if len(backends) > 1:
        out(f"error: refusing to compare results from different kernel backends "
            f"{sorted(backends)}")
        return 2
    settings = {(r["seconds"], r["smoke"]) for rs in records.values() for r in rs}
    if len(settings) > 1:
        out(f"error: runs differ in (seconds, smoke): {sorted(settings)}")
        return 2
    runs = {side: defaultdict(list) for side in records}
    for side, recs in records.items():
        for r in recs:
            if not r["trace"]:
                runs[side][r["workload"]].append(r)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out(f"{'workload':<22} {'metric':<14} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'wins':>7} {'gain':>8}  verdict")
    for workload in sorted(set(runs["A"]) & set(runs["B"])):
        a_runs, b_runs = runs["A"][workload], runs["B"][workload]
        for name, m in bounds.items():
            v = verdict([r["metrics"][name]["value"] for r in a_runs],
                        [r["metrics"][name]["value"] for r in b_runs],
                        m["bound"], m["better"])
            fmt = "/".join(f"{x:.4g}" for x in v["parent"])
            fmt_b = "/".join(f"{x:.4g}" for x in v["change"])
            out(f"{workload:<22} {name:<14} {fmt:>30} {fmt_b:>30} "
                f"{v['wins']:>3}/{v['pairs']:<3} {-v['worse_by']:>+8.1%}  "
                f"{v['verdict']} (bound {m['bound']:.0%})")
        for side, rs in (("parent", a_runs), ("change", b_runs)):
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            out(f"{workload:<22} failed_frac    {side}: {failed}/{attempted}")
    return 0
