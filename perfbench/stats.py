"""Latency summaries: the median and a tail percentile over one sample list,
and the correction of times for the speed of a shared machine.

The tail is the highest percentile that leaves at least BEYOND samples
above it in a sample list of the smallest size a run can have: with that
size n, the percentile 1 - BEYOND/n.  A run with more samples reports the
same percentile, so two runs always report the same one.  Below 4 * BEYOND
samples that percentile would be no tail, so it is refused.

Both are Harrell-Davis estimates: a weighted mean of all the order
statistics, weighted by a beta distribution centred on the wanted rank,
rather than the one sample at that rank.  On a shared machine each sample
carries tens of percent of noise, and the latencies of a small batch are
spread out, so the single sample at a rank moves from request to request
between runs; the weighted mean moves much less.  The estimate grows with
the percentile, so the tail is never below the median.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

BEYOND = 10


@dataclass(frozen=True)
class LatencySummary:
    count: int
    level: float
    p50: float
    tail: float

    def describe(self) -> str:
        return (f"{self.count} samples; req_p50_s = p50 = {self.p50:.6f}; "
                f"req_tail_s = p{100 * self.level:.1f} ({BEYOND} samples "
                f"above) = {self.tail:.6f}; both Harrell-Davis estimates")


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    estimate = sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))
    return min(max(estimate, ordered[0]), ordered[-1])  # the weights sum to 1 up to rounding


def summarize(samples, fewest: int) -> LatencySummary:
    """Median and tail percentile, both over `samples`, of which a run has
    at least `fewest`."""
    ordered = sorted(samples)
    n = len(ordered)
    if fewest < 4 * BEYOND:
        raise ValueError(f"{fewest} samples leave no tail beyond the median")
    if n < fewest:
        raise ValueError(f"{n} samples, fewer than the {fewest} a run makes")
    level = (fewest - BEYOND) / fewest
    p50 = harrell_davis(ordered, 0.5)
    # the estimate grows with the percentile; max() only absorbs rounding
    # where the samples near both ranks are equal
    tail = max(harrell_davis(ordered, level), p50)
    return LatencySummary(n, level, p50, tail)


def speed_corrected(seconds, calibration, nominal: float, half_window: int) -> list[float]:
    """Each time scaled to the machine speed at which the calibration loop
    takes `nominal` seconds.

    `seconds[j]` was taken right after `calibration[j]`.  The speed at j is
    the median of the calibration times within `half_window` places of j,
    so a spell in which the shared host runs everything slower scales the
    times taken in it back down, while one odd calibration time moves
    nothing.
    """
    if len(seconds) != len(calibration):
        raise ValueError("one calibration time per sample is needed")
    out = []
    for j, s in enumerate(seconds):
        near = calibration[max(0, j - half_window): j + half_window + 1]
        out.append(s * nominal / statistics.median(near))
    return out
