"""Host speed, sampled while an operation runs, to express its time in
reference units.

The benchmark host's speed drifts by more than half within a few seconds
(shared cores), and CPU time drifts with wall time, so raw operation times
from two sets of runs disagree by more than any useful bound.  While an
operation runs, an interval timer interrupts it every INTERVAL_S seconds to
run a short fixed reference: tokens through lower(), split() and Counters,
the kind of code dmeter spends its time in.  The work between two ticks
divided by the reference time measured at the tick that ends it is that
stretch's cost in reference units; their sum is the operation's cost, which
follows the program and not the host's momentary speed.  The time spent in
ticks is taken out of the operation's time.

The reference is fixed: it must not change between the commits a benchmark
compares.
"""

from __future__ import annotations

import random
import signal
import time
from collections import Counter

INTERVAL_S = 0.1
_TOKENS: list[str] = []


def _tokens() -> list[str]:
    if not _TOKENS:
        rng = random.Random(12345)
        words = ["".join(rng.choice("bcdfghklmnprstvz") + rng.choice("aeiou")
                         for _ in range(rng.randint(1, 4))) for _ in range(500)]
        weights = [1.0 / (r + 1) for r in range(len(words))]
        _TOKENS.extend(rng.choices(words, weights, k=3000))
    return _TOKENS


def tick() -> float:
    """Seconds of one run of the reference."""
    tokens = _tokens()
    start = time.perf_counter()
    toks = [t.lower() for t in " ".join(tokens).split()]
    Counter(toks)
    Counter(zip(toks, toks[1:]))
    return time.perf_counter() - start


def ref_units(ticks) -> float:
    """The work of a Sampler's ticks in reference units."""
    return sum(work_s / ref_s for work_s, ref_s in ticks)


class Sampler:
    """Ticks the reference every INTERVAL_S seconds of a with-block, and once
    more when it ends.

    ticks holds [work seconds since the previous tick, reference seconds];
    spent_s is the time the interval ticks took, handler included (the
    closing tick runs after the block).
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.ticks: list[list[float]] = []
        self.spent_s = 0.0
        self._mark = 0.0
        self._previous = None

    def _tick(self) -> float:
        start = time.perf_counter()
        self.ticks.append([start - self._mark, tick()])
        self._mark = time.perf_counter()
        return self._mark - start

    def _handler(self, _signum, _frame) -> None:
        self.spent_s += self._tick()

    def __enter__(self):
        tick()  # builds the tokens and warms the code before timing
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False
