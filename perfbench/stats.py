"""Summary statistics shared by run.py, spread.py and their tests."""

import math

# A timing's tail is reported at the highest percentile that still has at
# least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a
    fraction ``q`` of the samples at or below it. ``q`` is in (0, 1]."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    rank = max(1, math.ceil(q * len(s) - 1e-9))
    return s[rank - 1]


def supports(n, q, min_beyond=MIN_BEYOND):
    """Whether ``n`` samples leave at least ``min_beyond`` beyond the
    nearest-rank ``q`` percentile (p99 needs n >= 1000)."""
    return n - max(1, math.ceil(q * n - 1e-9)) >= min_beyond


def tail_level(n, min_beyond=MIN_BEYOND):
    """The highest percentile level with at least ``min_beyond`` samples
    beyond it, as a fraction, or None when ``n`` is too small."""
    if n <= min_beyond:
        return None
    return (n - min_beyond) / n


def tail(values, min_beyond=MIN_BEYOND):
    """``(level, value)`` at :func:`tail_level`, or ``(None, None)``."""
    level = tail_level(len(values), min_beyond)
    if level is None:
        return None, None
    return level, percentile(values, level)


def quartile_spread(values):
    """Inter-quartile distance as a share of the median, computed as
    ``statistics.quantiles(values, n=4)`` does."""
    import statistics

    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
