"""Order statistics for timing samples."""

from __future__ import annotations

import math

# Percentiles tried for the tail figure, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    order statistics; the same definition as numpy's default."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(values):
    """(q, value) for the highest candidate percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) >= 1000.0:
            return q, percentile(values, q)
    return None
