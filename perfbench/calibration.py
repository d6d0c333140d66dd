"""Host-speed calibration for wall-time metrics.

On a shared host the same CPU-bound work can take twice as long from one
minute to the next, with no time reported as stolen. A fixed loop of small
numpy operations and interpreter work, the same mix the program spends its
time on, slows down by about the same factor. Timing that loop next to the work
and scaling by REFERENCE_S / loop time gives *reference seconds*: the time
the work would take on a host where the loop runs in REFERENCE_S. The loop
is timed every INTERVAL_S during the measured work, because the host's speed
changes within seconds. Raw wall seconds are printed next to every
calibrated figure.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005   # loop time at the reference speed
LOOP_ITERS = 2000     # about 5 ms on a 2-core 2.0 GHz x86_64 VM
INTERVAL_S = 0.05     # period of loop timings during a pass

_A = np.random.default_rng(0).standard_normal((20, 20))
_X = np.ones(20)


def loop_seconds() -> float:
    """Wall seconds of one calibration loop."""
    start = perf_counter()
    acc = 0.0
    for i in range(LOOP_ITERS):
        y = _A @ _X
        acc += float(y @ y) * 1e-12 + i
    return perf_counter() - start


class Sampler:
    """Times the loop every INTERVAL_S from a SIGALRM handler while active.

    The handler runs between bytecodes of whatever is executing, so long
    solves are sampled throughout. ``reference`` removes the handler's own
    time from an interval and scales the rest by the host speed sampled in
    and around it.
    """

    def __init__(self):
        self.times: list[float] = []    # midpoint of each loop timing
        self.loops: list[float] = []    # loop seconds
        self.costs: list[float] = []    # handler seconds, to subtract

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        loop = loop_seconds()
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.loops.append(loop)
        self.costs.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, reference) seconds of the interval [t0, t1], both without
        the handler's time. Needs a sample after t1."""
        lo = bisect_left(self.times, t0)
        hi = bisect_right(self.times, t1)
        wall = t1 - t0 - sum(self.costs[lo:hi])
        around = self.loops[max(lo - 1, 0):hi + 1]
        speed = sum(REFERENCE_S / loop for loop in around) / len(around)
        return wall, wall * speed
