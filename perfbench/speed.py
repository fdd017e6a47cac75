"""Machine-speed probe that scales measured times to a reference speed.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, and a whole benchmark run can fall into a slow spell.  The harness
therefore pins itself and its children to one CPU and runs ``probe()``
between consecutive jobs.  A job that took ``t`` seconds counts as
``t * REFERENCE_S / p`` seconds, where ``p`` is the median of the probes
nearest to it: its time at the speed where the probe takes ``REFERENCE_S``.
Set-up times are scaled only in part (``scaled_setup``).  The probe is
benchmark code that no change to lpmech can touch, so scaled times of two
commits compare as raw times would on a quiet machine.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.015
WINDOW = 3


class _Dual:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _Dual(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Dual(self.re * other.re, self.re * other.im + self.im * other.re)


def _scalar_loop():
    x, y, z = _Dual(1.0001, 0.5), _Dual(0.9999, 0.25), _Dual(0.0, 0.0)
    for _ in range(40000):
        z = z + x * y
    return z


def _array_loop():
    a = np.array([_Dual(1.0 + 1e-3 * i, 0.5) for i in range(8)], dtype=object)
    m = np.full((3, 3), 0.5)
    for _ in range(600):
        a * a + a
        np.dot(a, a)
        m @ m + np.eye(3)
    return a


def probe():
    """Geometric mean of the times of a scalar and an object-array loop."""
    t0 = time.perf_counter()
    _scalar_loop()
    t1 = time.perf_counter()
    _array_loop()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def scaled_times(times, probes):
    """``times`` at the reference speed.

    Job ``k`` took ``times[k]`` seconds between ``probes[k]`` and
    ``probes[k + 1]``.  Its speed is the median of the ``WINDOW`` probes on
    each side of it, which smooths the jitter of single probes but still
    follows a slow spell that starts within the run.
    """
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, k - WINDOW + 1) : k + WINDOW + 1])
        for k, t in enumerate(times)
    ]


def scaled_setup(seconds, probe_median):
    """A set-up time at the reference speed.

    Interpreter start-up follows the probe only in part: much of it is file
    and memory work rather than bytecode.  Over two or three sets of ten
    runs per workload, scaling by the square root of the speed ratio kept the set
    medians within 15% of each other; the full ratio left 21%, and raw
    times 42%.  The probe median is over the whole run, because single
    probes jitter more than a short set-up run can average out.
    """
    return seconds * math.sqrt(REFERENCE_S / probe_median)


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the probe and
    the jobs see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
