"""Rescale in-process wall times to a reference machine speed.

Shared machines change speed by up to 2.6x for tens of seconds at a time,
which no run length or median hides.  A fixed pure-Python loop (exact
fractions, dict and frozenset churn, like the program's own work) is timed
between short segments of ops; each segment's wall times are multiplied by
REFERENCE_S over the mean loop time at its two ends.  A reported time is
thus the wall time on a machine where the loop takes REFERENCE_S; the run
reports the median factor applied.

A child process runs on whichever core it lands on, so the parent's loop
does not follow it: rescaling the CLI workload's per-pass times by it
widened their spread (interquartile range over median) from 0.11 to 0.27
in a 27-pass probe.  Each child times the loop itself instead
(cli_child.py), and the parent uses `Speed(rescale=False)`, a factor of 1.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-3


def _loop():
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i % 7 + 1)
        seen[(i, i % 5)] = frozenset((i, i + 1))
    return acc, len(set(seen.values()))


def loop_seconds(runs: int = 5) -> float:
    """Median time of the calibration loop now."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Speed:
    """Calibration between segments; `factor()` scales the times of the segment just ended."""

    def __init__(self, rescale: bool = True):
        self.rescale = rescale
        self.last = loop_seconds() if rescale else REFERENCE_S

    def factor(self) -> float:
        now = loop_seconds() if self.rescale else REFERENCE_S
        f = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return f
