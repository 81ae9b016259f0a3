"""Small statistics shared by the benchmark: medians, the tail rule, test thresholds."""
from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10):
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)``: with the samples sorted ascending,
    the value is the (n - beyond)-th one (1-based), which leaves exactly
    ``beyond`` samples above it, and the percentile is 100 (n - beyond) / n.
    With ``n <= beyond`` no such percentile exists and the maximum is
    returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail: no samples")
    if n <= beyond:
        return 100.0, float(xs[-1]), n
    k = n - beyond
    return 100.0 * k / n, float(xs[k - 1]), n


def dkw_epsilon(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz (Massart) radius: P(sup|F_n - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def chi2_upper(df: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile z standard deviations up."""
    if df <= 0:
        return 0.0
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3
