"""A speed reference for the host, sampled in step with the engine.

On a shared host the CPU runs the same Python code at different speeds from
one moment to the next, by as much as a factor of two over minutes, so raw
wall times of identical work cannot be compared between runs.  This module
times a small fixed kernel of pure Python at regular intervals while the
engine runs, from a timer signal in the benchmark's one thread, and turns
those samples into a factor that scales a measured time to the time the same
work takes on the reference host at its usual speed.

The kernel mimics the engine's inner loop (closures over a value list,
dictionary lookups, tuples built and hashed) but shares no code with it, so
that a change to the engine moves the measured time and never the factor.
Time spent in the signal handler is counted and taken out of every measured
interval.
"""

from __future__ import annotations

import gc
import itertools
import signal
import statistics
import time

# Reported times are the seconds the work would take on a host where the
# kernel runs in this time.  On the reference host (a 2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11.7) the kernel's samples run between about 0.3 ms and
# 0.6 ms, so reported times sit near its wall times in a quiet stretch.
# Changing the kernel or this value changes the scale of every reported time.
REFERENCE_KERNEL_S = 0.00040
INTERVAL_S = 0.02
# an interval with fewer samples of its own is scaled by the latest ones
MIN_SAMPLES = 10


def _make_kernel():
    size = 10
    fns = []
    for i in range(size):
        deps = tuple(j for j in range(i) if (i * 7 + j * 3) % 4 == 0)[:3]
        if not deps:
            fns.append(lambda v, e, i=i: e[i % len(e)])
        elif len(deps) == 1:
            fns.append(lambda v, e, a=deps[0]: 1 - v[a])
        else:
            fns.append(lambda v, e, d=deps: 1 if sum(v[k] for k in d) >= 2 else 0)
    allowed = [frozenset((0, 1))] * size
    order = range(size)

    def solve(exo, forced):
        v = [0] * size
        get = forced.get
        for i in order:
            value = get(i)
            if value is None:
                value = fns[i](v, exo)
                if value not in allowed[i]:
                    raise ValueError(value)
            v[i] = value
        return tuple(v)

    def kernel() -> int:
        seen: dict[tuple, int] = {}
        exo = (1, 0, 1)
        for combo in itertools.combinations(range(size), 2):
            for values in ((0, 1), (1, 0)):
                world = solve(exo, dict(zip(combo, values)))
                seen[world] = seen.get(world, 0) + 1
        return len(seen)

    return kernel


kernel = _make_kernel()


class Sampler:
    """Times the kernel every INTERVAL_S of wall time while installed.

    `mark()` opens an interval; `close(mark)` gives its measured seconds
    (handler time taken out) and the speed factor of the samples it holds.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handle(self, _signum, _frame) -> None:
        # the collector stays off while the kernel runs: a collection set off
        # by its allocations would sweep the engine's objects and bill the
        # kernel for them
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        start = clock()
        kernel()
        self.samples.append(clock() - start)
        if collecting:
            gc.enable()
        self.handler_s += clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.handler_s, len(self.samples)

    def close(self, mark) -> tuple[float, float]:
        """Seconds since `mark` without handler time, and the interval's
        speed factor (reference kernel time over the mean sampled time,
        averaged as a rate so that each sample weighs its share of time)."""
        started, handler_s, first = mark
        elapsed = time.perf_counter() - started - (self.handler_s - handler_s)
        samples = self.samples[first:]
        if len(samples) < MIN_SAMPLES:  # a short interval: the latest samples
            samples = self.samples[-MIN_SAMPLES:]
        if not samples:
            self._handle(None, None)
            samples = self.samples[-1:]
        return elapsed, REFERENCE_KERNEL_S * statistics.fmean(1 / s for s in samples)
