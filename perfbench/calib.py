"""Reference kernel that calibrates every reported time against host drift.

On the small VMs this benchmark runs on, the speed of each virtual CPU
changes by up to 40% from one second to the next, independently of the
other CPUs, so a raw time says as much about the host as about dualcox.  A
fixed kernel built only from the standard library (``Fraction``
arithmetic, tuple permutation, dict inserts: the operations dualcox spends
its time in) therefore samples the speed of the same CPU, at the same time
as the work:

* the benchmark pins itself and its children to one CPU (``pin``);
* inside a timed process, ``Sampler`` runs kernel slices next to the work
  and records when and for how long each ran: between short ops, and every
  ``SAMPLE_EVERY_S`` from a ``SIGALRM`` handler, between the bytecodes of
  whatever is running, inside long ones;
* a timed interval loses the slices that ran inside it, and is then scaled
  by ``REF_SLICE_S / mean slice time`` over the slices that ran inside it
  and within ``PAD_S`` of it: the time it would have taken on a host where
  one slice takes ``REF_SLICE_S``.

The kernel runs with the cyclic garbage collector off, so its time does not
depend on how many objects the program under test keeps alive.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

#: Kernel slice time on the reference host (2-core VM, Python 3.11); fixed.
REF_SLICE_S = 0.0040
SAMPLE_EVERY_S = 0.1
#: Slices this close to an interval also calibrate it.
PAD_S = 0.1
_STEPS = 750
_PERM = (3, 7, 0, 12, 9, 1, 15, 4, 10, 2, 14, 6, 11, 5, 13, 8)


def _kernel(steps: int) -> int:
    acc = Fraction(0)
    vec = tuple(range(16))
    table = {}
    for i in range(steps):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        vec = tuple(vec[p] for p in _PERM)
        table[vec, i] = acc
    return len(table) + acc.denominator


def slice_time() -> float:
    """Seconds taken by one kernel slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel(_STEPS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def pin():
    """Keep this process and its future children on one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Samples:
    """Kernel slices as (start, seconds), in time order."""

    def __init__(self, samples=()):
        self.starts = [s for s, _ in samples]
        self.times = [d for _, d in samples]

    def add(self, start, seconds):
        self.starts.append(start)
        self.times.append(seconds)

    def point(self):
        """Run one slice now, outside any timed interval."""
        t0 = time.perf_counter()
        self.add(t0, slice_time())

    def inside(self, t0, t1) -> float:
        """Seconds of kernel slices that ran inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return sum(self.times[lo:hi])

    def calibrate(self, t0, t1) -> tuple:
        """(raw, calibrated) seconds of the work done in [t0, t1]."""
        raw = (t1 - t0) - self.inside(t0, t1)
        # the slices within PAD_S, and at least the last one before and the
        # first one after the interval
        lo = min(bisect.bisect_left(self.starts, t0 - PAD_S),
                 max(bisect.bisect_left(self.starts, t0) - 1, 0))
        hi = max(bisect.bisect_right(self.starts, t1 + PAD_S),
                 bisect.bisect_right(self.starts, t1) + 1)
        return raw, raw * REF_SLICE_S / statistics.fmean(self.times[lo:hi])

    def pairs(self):
        return list(zip(self.starts, self.times))


class Sampler(Samples):
    """Runs a kernel slice every ``SAMPLE_EVERY_S`` from a SIGALRM handler.

    The timer runs from ``__enter__`` and between ``resume`` and ``pause``.
    Slices shift the garbage collector's schedule (the kernel's objects
    count towards the next collection, and a signal handler call makes the
    interpreter build a frame object), so a run of short ops keeps the timer
    paused and takes its slices between ops, after a fixed number of ops,
    where every run takes them at the same points; only long ops are
    interrupted.
    """

    def _on_alarm(self, signum, frame):
        self.point()

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._old)
