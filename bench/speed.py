"""Host speed, sampled while each timed call runs, so that runs compare.

On a shared host the same code runs up to 1.7 times slower for
seconds to minutes at a time (neighbours on sibling hyperthreads,
clock changes), with no time stolen from the process: its CPU time grows as
much as its wall time.  A run that happens to fall in a slow stretch would
then read as a slower program.  So ``Meter.run`` times a call while a
timer interrupts it every ``PERIOD_S`` to time a small fixed kernel, and
also times the kernel just before and after the call.  The call's time
(less the time the interruptions took) is scaled by
``REFERENCE_S / (mean kernel time)``: the time it would take on a host that
runs the kernel in ``REFERENCE_S``.  The kernel spends its time as the
library does, in interpreted complex arithmetic and 3x3 complex matrix
products.

The benchmark pins itself, and so the CLI processes it starts, to one CPU
(``pin_to_one_cpu``), so that the kernel and a child process run on the
same core, and a child's time includes the interruptions, which are taken
off it.  On a 2-core x86_64 KVM guest, over three minutes in which the
host's speed changed, this took the standard deviation of the log of an
input's median latency over 5 repeats from 0.19-0.20 to 0.06-0.08 in
process and from 0.14 to 0.07 for a CLI process.

The unscaled times stay in the run's report file.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.4e-4  # the kernel's time on the 2-core x86_64 host the bounds were set on
PERIOD_S = 0.005  # between kernel samples inside a call: about 3% of its time
BRACKET = 10  # kernel runs just before and just after each call
OUTLIER = 3.0  # a kernel run slower than this times the median was preempted; dropped

_M = np.eye(3, dtype=complex) * 0.5


def kernel():
    acc = 0j
    m = _M
    for i in range(40):
        acc += complex(i, 1.0) * (i % 7)
        m = m @ _M + _M
    return acc, m


def pin_to_one_cpu() -> int:
    """Restrict this process and its future children to one of its CPUs; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel_runs(count: int) -> list:
    runs = []
    for _ in range(count):
        t0 = perf_counter()
        kernel()
        runs.append(perf_counter() - t0)
    return runs


def typical(runs: list) -> float:
    """Mean kernel time, without the runs that were preempted."""
    cap = OUTLIER * statistics.median(runs)
    return statistics.fmean(r for r in runs if r <= cap)


class Meter:
    """Times calls in reference seconds.  Use as a context manager: it owns SIGALRM."""

    def __init__(self):
        self._ticks = []  # kernel times sampled inside the current call
        self._tick_s = 0.0  # wall time the samples took inside the current call
        self._before = []
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self._ticks.append(t1 - t0)
        self._tick_s += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._before = _kernel_runs(BRACKET)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn):
        """(result, exception, reference seconds, wall seconds) of ``fn()``.

        The wall seconds leave out the kernel samples taken inside the call.
        An exception from ``fn`` is returned, not raised: the caller counts it.
        """
        self._ticks, self._tick_s = [], 0.0
        out, exc = None, None
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as err:  # a call that raises is a failed operation, not a crash
            exc = err
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self._tick_s
        after = _kernel_runs(BRACKET)
        kernel_s = typical(self._before + self._ticks + after)
        self._before = after
        return out, exc, wall * REFERENCE_S / kernel_s, wall
