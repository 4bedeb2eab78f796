"""Sampled core speed, so times can be stated at one fixed speed.

A shared host runs this process's core at a speed that changes by up to
about 1.8x, in stretches from milliseconds to minutes, as other tenants
load the machine; the median wall time of a multi-second op then moves
with the host's load more than with the program.  ``Meter`` samples the
speed while the benchmark runs: every ``INTERVAL_S`` of wall time a
SIGALRM handler runs ``kernel()``, a fixed mix of interpreter work and
small numpy ops (the kinds of work in ntpboost's distinguisher and engine
code), once to warm the caches the interrupted code left cold and once
timed.  The work done in an interval, in nominal seconds,
is its wall time times the mean over its samples of
``NOMINAL_S / kernel time``: the time the interval would have taken on a
core that runs ``kernel()`` in ``NOMINAL_S``.  ``NOMINAL_S`` only sets
the unit.  The handler's own time is taken out of every interval it
falls in.

The scaling removes the host's speed only as far as the measured code
slows down by the same factor as ``kernel()``; README.md gives how far
that holds for each workload.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import product

import numpy as np

INTERVAL_S = 0.02
NOMINAL_S = 6e-5
_BATCH = np.linspace(0.0, 1.0, 64)


def kernel() -> None:
    """Half interpreter work (tuples, dicts, floats), half numpy calls on a
    64-wide batch: contention slows the two by different factors, and
    ntpboost's distinguisher code is mostly the first kind, its engine
    mostly the second."""
    table = {}
    for w in product(range(2), repeat=6):
        table[w] = sum(w) * 0.5 + w[0]
    acc = 0.0
    for w, v in table.items():
        acc += v * table[w[::-1]]
    x = _BATCH.copy()
    for _ in range(16):
        x = np.maximum(x * 0.5 + _BATCH, 0.0)


class Meter:
    def __init__(self) -> None:
        self.rates: list[float] = []  # NOMINAL_S / kernel time, per sample
        self.spent = 0.0  # wall time spent in the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()  # warms the caches the interrupted code left cold
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.rates.append(NOMINAL_S / (t2 - t1))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.rates), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """``(rate, spent)`` since ``mark``: the mean sampled rate (over the
        whole run if no sample fell after ``mark``) and the handler time."""
        n, spent = mark
        rates = self.rates[n:] or self.rates
        return statistics.fmean(rates), self.spent - spent

    def nominal(self, seconds: float, mark: tuple[int, float]) -> float:
        """Nominal seconds of work in ``seconds`` measured since ``mark``."""
        rate, spent = self.since(mark)
        return (seconds - spent) * rate
