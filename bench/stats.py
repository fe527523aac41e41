"""Order statistics for latency samples and run-to-run spreads."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10
TAIL_CAP = 99      # percent; past it the tail is machine noise, not load


def tail(values) -> tuple:
    """(percentile, value, samples beyond): the highest nearest-rank
    percentile, up to p99, with at least MIN_BEYOND samples beyond it.
    With fewer than 2 * MIN_BEYOND samples the median is returned with
    the count beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    cap = (TAIL_CAP * n + 99) // 100          # ceil(n * cap / 100)
    rank = max((n + 1) // 2, min(cap, n - MIN_BEYOND))
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def summary(values) -> dict:
    """Median, quartiles and their distance as a share of the median,
    with quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}
