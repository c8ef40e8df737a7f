"""In-memory spans around calls into a package, recorded from outside it.

A Tracer replaces the module attributes that callers look functions up
through with wrappers.  A span wrapper records one span per call: name,
start, end and the index of the enclosing span.  A counter wrapper only
counts calls, for functions called too often to span.  restore() puts every
original attribute back.  Spans stay in memory; the caller writes them out
when its run ends.

A span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """A function to wrap: `attr` of `package.module`, as `Class.method` for a
    method.  A counter target counts calls looked up through its own module
    only; a span target is wrapped wherever the package holds a reference to
    it.  on_result(counts, args, result) may add counts after each call."""

    module: str
    attr: str
    name: str
    counter: bool = False
    on_result: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter, peak_names=()):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self.peaks_mb: dict[str, float] = {}
        self.counter_calls = 0
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._peak_names = frozenset(peak_names)

    def span(self, name: str, fn, on_result=None):
        """fn wrapped to record a span per call.  For a name in peak_names the
        call also runs under tracemalloc and its peak allocation is kept."""
        spans, stack, clock = self.spans, self._stack, self._clock
        peak = name in self._peak_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            tracking = peak and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if tracking:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak_mb)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped to count its calls under `name`."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            self.counter_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, targets) -> None:
        """Patch every target; call restore() to undo."""
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        )
        for t in targets:
            module = importlib.import_module(f"{package}.{t.module}")
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                sites = [(owner, attr)]
                original = vars(owner)[attr]
            elif t.counter:
                sites = [(module, attr)]
                original = getattr(module, attr)
            else:
                original = getattr(module, attr)
                sites = [(mod, key) for _, mod in modules
                         for key, value in list(vars(mod).items()) if value is original]
            if t.counter:
                wrapper = self.counter(t.name, original)
            else:
                wrapper = self.span(t.name, original, t.on_result)
            for owner, key in sites:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def overhead_s(self, calls: int = 20_000) -> float:
        """Estimated tracing cost of this run: recorded spans and counted calls
        times the measured cost of one wrapped call over a bare one."""
        span_cost, count_cost = wrapper_costs(calls)
        return span_cost * len(self.spans) + count_cost * self.counter_calls


def wrapper_costs(calls: int) -> tuple[float, float]:
    """Seconds added per call by a span wrapper and by a counter wrapper."""
    def noop():
        return None

    probe = Tracer()
    spanned, counted = probe.span("probe", noop), probe.counter("probe", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    base = loop(noop)
    return max(0.0, (loop(spanned) - base) / calls), max(0.0, (loop(counted) - base) / calls)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals, clipped
    to the span.  Spans are in start order, as a Tracer records them."""
    covered = [0.0] * len(spans)
    reach: dict[int, float] = {}  # parent -> latest end covered so far
    for _name, start, end, parent in spans:
        if parent is None:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, reach.get(parent, p_start))
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - cov for (_n, start, end, _p), cov in zip(spans, covered)]
