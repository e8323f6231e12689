"""Timings corrected for the speed of a shared host.

On a shared virtual machine one core's speed drifts by a third and more,
over seconds as well as minutes, in CPU time as well as in wall time,
with whatever else the host runs.  A median over a 30-second run moves
with it, so two sets of runs of the same code disagree by more than any
useful bound.

A fixed reference kernel, which does not touch switchlayer, is timed
right before and right after every timed call.  The call's time divided
by the kernel's mean time around it no longer carries the drift; times
REFERENCE_S, the kernel's time on this host when it is quiet, it reads
as seconds at that quiet speed.  A program change that makes a call 10%
faster makes its reference time 10% smaller, since the kernel does not
change with the program.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-CPU virtual machine the benchmark was tuned
# on, at its quiet speed (the low tail of several thousand timings).
REFERENCE_S = 0.0045


def kernel():
    """Interpreter and small-array numpy work, the mix the workloads do."""
    s = 0
    for i in range(40000):
        s += i * i % 7
    a = np.arange(50.0)
    for _ in range(1200):
        a = np.sqrt(a * 1.0001 + 1.0)
    return s + float(a[0])


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times calls in reference seconds, bracketing each by the kernel."""

    def __init__(self):
        self._before = kernel_seconds()

    def time(self, fn):
        """(reference seconds, wall seconds, value) of one call of fn."""
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        return self.scale(wall), wall, value

    def scale(self, wall):
        """Reference seconds of ``wall`` seconds spent since the last call."""
        after = kernel_seconds()
        scaled = REFERENCE_S * wall / (0.5 * (self._before + after))
        self._before = after
        return scaled
