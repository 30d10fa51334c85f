"""Summary statistics shared by the benchmark and its self-tests.

Item latencies mix very different work items (a counter's campaign unit
next to an accumulator's RTL-Repair search), so their sorted values have
gaps.  A quantile read off a single order statistic jumps across such a
gap when the host slows down for part of a run.  Quantiles are
therefore Harrell–Davis estimates: a Beta-weighted average of all order
statistics, concentrated around the requested rank.
"""

import math

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x, a, b):
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def quantile(samples, p):
    """Harrell–Davis estimate of the ``p`` quantile of ``samples``."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, below = 0.0, 0.0
    for rank, value in enumerate(ordered, 1):
        upto = beta_cdf(rank / n, a, b)
        total += (upto - below) * value
        below = upto
    return total


def median(samples):
    return quantile(samples, 0.5)


def tail(samples, beyond=TAIL_BEYOND):
    """``(value, percentile)`` at the highest percentile that leaves at
    least ``beyond`` of the ``n`` samples above it: ``100 * (n -
    beyond) / n``.  Raises ``ValueError`` when there are too few
    samples to have such a tail."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"{n} samples cannot have {beyond} beyond a tail percentile")
    p = (n - beyond) / n
    return quantile(samples, p), 100.0 * p
