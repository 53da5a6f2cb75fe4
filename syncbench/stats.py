"""Order statistics shared by every workload."""

from __future__ import annotations

import math
import statistics

#: tail levels tried from the highest down; the first that leaves at least
#: ``TAIL_MIN_BEYOND`` samples above it is reported
TAIL_LEVELS = (0.99, 0.95, 0.90, 0.75)
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` of them at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_level(n: int) -> float:
    """The highest of :data:`TAIL_LEVELS` with at least ten samples beyond it.

    A run with fewer than 40 samples has no such level; it reports p75, the
    lowest level that still lies above the median.
    """
    for q in TAIL_LEVELS:
        if n - max(1, math.ceil(q * n)) >= TAIL_MIN_BEYOND:
            return q
    return TAIL_LEVELS[-1]


def tail(values) -> tuple[float, float]:
    """``(level, value)`` of the tail percentile of ``values``."""
    q = tail_level(len(values))
    return q, percentile(values, q)


def median(values) -> float:
    return statistics.median(values)
