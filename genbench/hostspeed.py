"""The host's speed while a query runs, from a fixed Fraction kernel.

The benchmark runs on a share of a machine whose speed drifts by a third
or more in phases of tens of seconds, about as long as a run, so the raw
run medians of one query on the same code spread by a quarter to a half of
their value.  Every timed query is therefore scaled by the speed the host
had while it ran: a SIGALRM handler times a small kernel of Fraction
arithmetic, the kind of work genpi's queries do, every PERIOD_S of wall
time.  A query whose net time (raw minus the kernel's own time) is t, while
the kernel took r on average (typical_s), is reported as t * NOMINAL_S / r:
its time on a host on which the kernel takes NOMINAL_S.  The kernel is
benchmark code and does the same work on every commit, so a change to
genpi moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
NOMINAL_S = 0.0006  # about the kernel's time inside a query on a 2-vCPU Xeon VM
MIN_SAMPLES = 5  # fewer samples in a query: use the kernel timed around it
AROUND_REPEATS = 30

_rng = random.Random(0)


def _fraction(bound: int) -> Fraction:
    return Fraction(_rng.randint(-bound, bound), _rng.randint(1, bound))


# large operands, whose sum grows to a few hundred digits, and small ones,
# as in genpi's structure constants; each half alone tracked the drift worse
_LARGE = [(_fraction(10**6), _fraction(10**6)) for _ in range(50)]
_SMALL = [(_fraction(9), _fraction(9)) for _ in range(40)]


def kernel_s() -> float:
    """One timing of the kernel.  The cyclic collector is off while it
    runs, so that the size of the program's heap cannot enter it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for a, b in _LARGE:
            acc += a * b
        for a, b in _SMALL:
            a * b + a - b
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def typical_s(samples: list[float]) -> float:
    """Mean kernel time, each sample clipped at twice the median: a sample
    caught by a rare stall (up to ten times the median, seen inside
    numpy-heavy queries) would otherwise outweigh a hundred others."""
    cap = 2 * statistics.median(samples)
    return statistics.fmean(min(x, cap) for x in samples)


def around_s() -> float:
    """Mean kernel time over AROUND_REPEATS back-to-back runs, taken
    between queries and cold starts."""
    return typical_s([kernel_s() for _ in range(AROUND_REPEATS)])


def scaled(seconds: float, kernel_mean_s: float) -> float:
    return seconds * NOMINAL_S / kernel_mean_s


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S while the
    `with` block runs; `busy_s` is the time the samples took."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(kernel_s())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def busy_s(self) -> float:
        return sum(self.samples)
