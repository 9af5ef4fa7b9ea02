"""The benchmark's own arithmetic: percentiles, self time, rates, spread."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile


def median(values) -> float:
    return statistics.median(values)


def tail(values, quantile: float) -> float:
    """The nearest-rank percentile at `quantile`.

    Each workload pins its quantile (see workloads.make), so the same
    statistic is compared across commits whatever the sample count. A
    quantile above the median is pinned where a run at the first
    benchmarked speed leaves at least TAIL_BEYOND samples above it; a
    faster program leaves more.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(quantile * len(ordered)))  # 1-based
    return ordered[rank - 1]


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(start: int, end: int, children) -> int:
    """A span's duration minus the part of it its children cover; children
    that overlap each other are subtracted once."""
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length((s, e) for s, e in clipped if e > s)


def rate(work_per_op: float, op_seconds) -> float:
    """Work per second, taken from the median op time."""
    return work_per_op / median(op_seconds)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
