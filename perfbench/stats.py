"""Order statistics and the parent-vs-change verdict used by the benchmark."""
from __future__ import annotations

import math
import statistics

# percentiles a tail latency may be reported at, highest first.  p95 is the
# top: on a shared 2-vCPU host, p99 over a 25 s run moved by a third between
# runs of the same code, because stalls of the host come in bursts.
TAIL_LADDER = (95.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p`` % at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[max(1, _rank(p, len(xs))) - 1]


def _rank(p: float, n: int) -> int:
    """Number of samples at or below the ``p``-th percentile of ``n``."""
    return math.ceil(round(p * n / 100.0, 9))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(parent, change, better: str, bound: float | None) -> dict:
    """Judge paired parent/change samples of one workload × metric.

    A gain needs the change to win at least nine tenths of the pairs (ties
    count for neither side) and a median gap wider than the parent's
    inter-quartile distance.  A regression is a median worse than the
    parent's by more than ``bound``.  When either side spreads wider than
    ``bound`` the result is "unresolved", unless every change sample beats
    every parent sample.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - pmed)
    rel_worse = -gap / abs(pmed) if pmed else 0.0
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    row = {"parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
           "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
           "wins": wins, "losses": losses, "pairs": len(parent),
           "rel_change": sign * gap / abs(pmed) if pmed else 0.0}
    if gap > 0 and wins >= math.ceil(0.9 * len(parent)) and gap > pq3 - pq1:
        row["verdict"] = "gain"
    elif bound is not None and rel_worse > bound:
        row["verdict"] = "regression"
    elif (bound is not None and max(spread(parent), spread(change)) > bound
          and not all_better):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within bound" if bound is not None else "no claim"
    return row
