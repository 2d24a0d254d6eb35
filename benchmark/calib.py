"""Host-speed calibration for the benchmark's timings.

On a shared machine the speed of a core switches between levels as far
apart as 0.8x and 1.6x, several times a second, so raw times of identical
runs spread widely, and a calibration loop timed only before and after a
multi-second request misses most of the switches.  A `Probe` therefore
samples the speed *during* the timed code: a timer signal interrupts it
every `PERIOD_S` seconds and times a short slice of a fixed pure-Python
loop that calls no tasp code.  A time divided by the mean speed seen over
the same interval is stable to a few percent; it is expressed in *cal*
units, the time `UNIT_ITERATIONS` iterations of the loop take.
"""

import signal
from dataclasses import dataclass
from time import perf_counter

UNIT_ITERATIONS = 40_000
SLICE_ITERATIONS = 150
PERIOD_S = 0.01
#: Nominal seconds per cal unit (one cal took 0.1-0.15 s on a 2-core
#: x86-64 machine with Python 3.11), used to state a calibrated time in
#: seconds.  It is a constant, so it only scales.
REFERENCE_UNIT_S = 0.1


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight

    def total(self):
        return self.key[0] + self.weight


@dataclass(frozen=True)
class _Term:
    name: str
    args: tuple


def _size(term):
    if isinstance(term, _Term):
        return 1 + sum(_size(a) for a in term.args)
    return 1


def loop(iterations):
    """The kinds of work the pipeline spends its time on, in one loop:
    building and hashing tuples and nested frozen dataclasses, dict
    updates, small objects with attribute access and method calls,
    recursive calls and integer arithmetic.  Host contention slows each
    kind by a different factor, so the mix follows the pipeline's
    slowdown more closely than any one of them."""
    table = {}
    window = []
    acc = 0
    for i in range(iterations):
        key = (i % 97, i & 63, "k")
        table[key] = table.get(key, 0) + 1
        node = _Node(key, i & 7)
        if isinstance(node, _Node):
            window.append(node.total())
        if len(window) > 32:
            window.clear()
        acc = (acc + i * i) % 1000003
        if i & 1:
            term = _Term("f", (_Term("g", (i & 15, "a")), i % 7))
            table[term] = _size(term)
    return acc


class Probe:
    """Samples host speed while active (main thread only)."""

    def __init__(self):
        self.speeds = []    # loop iterations per second, one per slice
        self.spent = 0.0    # seconds spent in slices
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        loop(SLICE_ITERATIONS)
        elapsed = perf_counter() - start
        self.speeds.append(SLICE_ITERATIONS / elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_since(self, first):
        """Seconds per cal unit over the slices from index `first` on; an
        interval too short to hold a slice takes one now."""
        if len(self.speeds) <= first:
            self._sample()
        speeds = self.speeds[first:]
        return UNIT_ITERATIONS * len(speeds) / sum(speeds)
