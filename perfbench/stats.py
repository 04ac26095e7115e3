"""Summary statistics shared by the workloads: medians, the tail rule and
calibration-normalised latencies."""

from __future__ import annotations

import math

#: percentiles the tail rule may pick from, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: a tail percentile must have at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method) of a nonempty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the latency tail.

    The tail is the highest ladder percentile that leaves at least
    ``TAIL_MIN_BEYOND`` samples above it, so it never rests on a handful of
    outliers. A sample too small for any ladder step (fewer than 20 values)
    has no such percentile; it reports its median, labelled percentile 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    def beyond(p: float) -> int:
        return math.floor(n * (100.0 - p) / 100.0 + 1e-9)  # 1e-9 absorbs float error in 100 - p

    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if beyond(p) >= TAIL_MIN_BEYOND:
            chosen = p
    return percentile(values, chosen), chosen, beyond(chosen)


def normalise(latencies, first_op, calib) -> list[float]:
    """Each latency over the mean of the calibration timings around its pass.

    ``first_op[p]`` is the index of pass ``p``'s first latency, with one
    more entry closing the last pass; ``calib[p]`` was timed just before
    pass ``p`` and ``calib[p + 1]`` just after it.
    """
    if len(calib) != len(first_op):
        raise ValueError("need one calibration before each pass and one after the last")
    out = []
    for p in range(len(first_op) - 1):
        unit = (calib[p] + calib[p + 1]) / 2
        out.extend(t / unit for t in latencies[first_op[p]:first_op[p + 1]])
    return out
