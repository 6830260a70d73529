"""Timed operations, scaled to a reference machine speed.

The benchmark runs on shared machines whose speed for this kind of code
drifts by 20% and more within seconds; the same 5 s build took 4.7 to 6.3 s
in one minute on an idle shared two-core VM.  No averaging of a few long
operations removes that.  So a run samples the machine's speed throughout:
``SpeedMeter`` times ``reference_work()`` (a fixed piece of exact rational
arithmetic that does not touch the library) every tenth of a second from a
timer signal.  Each operation's time, minus the time the sampling took
inside it, is scaled by ``REFERENCE_S`` over the mean reference time
measured during it, widened by one sample on each side.  Reported times are
thus seconds on a machine where the reference takes 5 ms.  A sample also
follows every operation, so that a short operation has one next to it on
both sides.  A workload whose operations are child processes gives the
meter another reference (a bare interpreter start) and no timer, so that
nothing else runs while a child process is timed.  In a test of nine
builds of one spec, the scaled times varied by 3% (coefficient of
variation) where the raw ones varied by 12%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

clock = time.perf_counter

REFERENCE_S = 0.005


def reference_work():
    """Fraction arithmetic with small dicts and tuples: the same kind of
    work as the library's, independent of it."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 1400):
        if i % 50 == 0:
            x = Fraction(1, 3)
        x = (x + Fraction(i, i + 7)) / 2
        acc[i % 97, i % 13] = (x, i)
    return len(acc)


def reference_time() -> float:
    """Seconds reference_work() takes, with the cyclic collector off: its
    cost grows with the objects the workload keeps alive, and the reference
    must not depend on them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Reference timings through one run.

    ``measure()`` times a fixed piece of work that should take ``nominal``
    seconds.  A sample follows every operation.  With a period, a SIGALRM
    timer also samples every ``period`` seconds while the meter is entered.
    """

    def __init__(self, measure=reference_time, nominal: float = REFERENCE_S,
                 period: float | None = None):
        self.measure = measure
        self.nominal = nominal
        self.period = period
        self.times = []          # when each sample ended
        self.refs = []           # how long each took
        self.stolen = 0.0        # time the timer's samples took
        self._old_handler = None
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        try:
            ref = self.measure()
        finally:
            self._sampling = False
        self.times.append(clock())
        self.refs.append(ref)

    def _tick(self, signum, frame):
        if self._sampling:       # the timer fired inside a sample
            return
        t0 = clock()
        self.sample()
        self.stolen += clock() - t0

    def after_op(self) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        if self.period is not None:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()
        return False

    def scale(self, start: float, end: float) -> float:
        """nominal over the mean reference time in [start, end], with the
        nearest sample before and after it."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = min(bisect.bisect_right(self.times, end) + 1, len(self.times))
        return self.nominal / statistics.fmean(self.refs[lo:hi])


class Outcome:
    """Timings, answers checked and failures of one run.

    With a meter, times are scaled to reference speed when the run ends;
    without one (the traced run) they are plain wall times.
    """

    def __init__(self, meter: SpeedMeter | None = None):
        self.meter = meter
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures = []
        self.ops = 0             # library operations timed
        self.busy = 0.0          # their total time
        self.nulls = 0           # documented null geometric answers
        self.notes = []          # lines a workload adds to its report
        self._raw = []           # (keys, start, end, wall)
        self._counts = Counter()

    def time(self, keys, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), timing it under one key or a tuple of
        keys."""
        keys = (keys,) if isinstance(keys, str) else keys
        stolen = self.meter.stolen if self.meter else 0.0
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        if self.meter:
            stolen = self.meter.stolen - stolen
            self.meter.after_op()
        self._counts.update(keys)
        self._raw.append((keys, start, end, end - start - stolen))
        return result

    def timed(self, key: str) -> int:
        """How many timings were taken under key so far."""
        return self._counts[key]

    def finish(self) -> None:
        """Turn the raw timings into samples (call after the meter exits)."""
        for keys, start, end, wall in self._raw:
            value = wall * self.meter.scale(start, end) if self.meter else wall
            for key in keys:
                self.samples[key].append(value)
            self.busy += value
        self._raw = []

    def record(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3
