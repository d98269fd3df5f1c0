"""Order statistics for latency samples."""

from __future__ import annotations

import statistics

# Percentiles a tail may be reported at, in tenths of a percent.
TAIL_LADDER = (900, 990, 999)
MIN_BEYOND = 10


def percentile(samples, tenths: int) -> float:
    """Nearest-rank percentile; `tenths` is the percentile times ten."""
    ordered = sorted(samples)
    return ordered[max(rank(len(ordered), tenths), 1) - 1]


def rank(n: int, tenths: int) -> int:
    """1-based nearest rank of the percentile among n samples."""
    return -(-tenths * n // 1000)


def tail(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile with at least
    MIN_BEYOND samples beyond it, or None when even p90 has fewer."""
    n = len(samples)
    best = None
    for tenths in TAIL_LADDER:
        if n - rank(n, tenths) >= MIN_BEYOND:
            best = (tenths / 10, percentile(samples, tenths))
    return best


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
