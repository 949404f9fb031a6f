"""Timing summaries: median, op count and the highest ladder percentile that
still has at least ten samples beyond it."""

from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(values, ladder=PERCENTILE_LADDER, beyond=MIN_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above its
    rank, as ``(q, value)``; None when even the lowest has too few."""
    s = sorted(values)
    best = None
    for q in ladder:
        rank = max(1, math.ceil(q * len(s) / 100.0))  # 1-based nearest rank
        if len(s) - rank >= beyond:
            best = (q, s[rank - 1])
    return best


def summarize(values) -> dict:
    """Median, sample count and tail percentile of a list of timings."""
    if not values:
        raise ValueError("no samples to summarize")
    tail = tail_percentile(values)
    return {"count": len(values), "p50": statistics.median(values),
            "tail": None if tail is None else {"q": tail[0], "value": tail[1]}}


def relative_spread(values) -> float:
    """Distance between the first and third quartiles over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
