"""A fixed reference computation timed beside every workload.

The benchmark host shares its cores and caches with other tenants, and its
speed drifts by up to 1.6x over tens of seconds. Raw latencies of two runs
of the same code therefore differ by more than a regression bound. Each
pass of a workload is bracketed by timings of this kernel, and latencies are
reported in multiples of it as well as in milliseconds.

The kernel mixes the three kinds of work scdmi does: interpreted Python
loops, numpy calls on small arrays, and streaming arithmetic over arrays
larger than a core's L2 cache. It never calls scdmi, so a change to the
program moves the ratio in full. Changing the kernel changes the unit of
every normalised metric; it is part of the benchmark, not of the program.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20170613)
_SMALL = _RNG.uniform(size=4096)
_LARGE = _RNG.uniform(size=(4, 65536))  # 2 MiB, larger than L2

#: kernel runs per calibration; the median is taken
REPEATS = 3


def kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(30000):
        acc += i * 0.5
        table[i & 63] = acc
    for _ in range(300):
        acc += float((_SMALL * _SMALL).sum()) + float(_SMALL[::2].max())
    a, b, c, d = _LARGE
    for _ in range(15):
        acc += float((a * b * c).sum()) + float(np.cumsum(d)[-1])
    return acc


def calibrate() -> float:
    """Median wall time, in seconds, of ``REPEATS`` kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2]
