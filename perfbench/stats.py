"""Latency summaries, run-to-run spread, and the parent-vs-change comparison."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (50, 75, 80, 85, 90, 95, 99, 99.9)


def percentile(values, p: float) -> float:
    """Percentile of a non-empty sample, interpolating linearly between ranks
    (so that percentile 50 is the median)."""
    v = sorted(values)
    pos = p / 100 * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples above) for the highest percentile in
    TAIL_PERCENTILES that leaves at least ten samples above it.

    With fewer than 20 samples no percentile qualifies; the maximum is then
    returned as percentile 100 with 0 samples above, and the runner makes
    enough passes that this does not happen.
    """
    best = None
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        above = sum(1 for x in values if x > value)
        if above >= 10:
            best = (p, value, above)
    return best or (100, max(values), 0)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def compare(parent: dict, change: dict, metrics: list[dict]) -> list[dict]:
    """Flag every end-to-end metric whose median got worse by more than its bound.

    ``parent`` and ``change`` map a workload to a list of run results (the
    ``metrics`` objects printed by run.py).  A metric whose parent spread is
    wider than its bound is reported as unresolved, unless every change run is
    better than every parent run.
    """
    rows = []
    for workload in sorted(parent):
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            lower = spec["better"] == "lower"
            a = [r[name]["value"] for r in parent[workload]]
            b = [r[name]["value"] for r in change.get(workload, [])]
            if not b:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing"})
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if len(a) >= 2 and spread(a) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "parent": ma,
                         "change": mb, "worse_by": worse, "bound": bound,
                         "verdict": verdict})
    return rows
