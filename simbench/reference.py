"""Host-speed reference: fixed pure-Python work timed beside every step.

Shared hosts slow a whole process down for seconds to minutes at a time,
by up to 2x, when other tenants load the same cores and caches; best-of
or median-of-repeats within one run cannot remove a slow spell that
covers the run.  So every timed step is bracketed by a run of
:func:`reference_work`, a fixed mix of the interpreter operations the
simulator spends its time on (heap push/pop, generator resumes, small
objects, dict stores).  It is benchmark code, so no change to the
simulator can change its cost.  A step's host seconds are scaled by
``REFERENCE_S`` over the mean of the two reference timings around it:
the result is the step's cost on a host that runs the reference in
``REFERENCE_S`` seconds.  On a 2-vCPU 2.0 GHz Xeon virtual machine with
CPython 3.11 the reference took from 7 ms to 20 ms, depending on what
the other tenants of the machine were doing.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Callable, List, Tuple

#: reference-work host seconds on the nominal host
REFERENCE_S = 0.010


class _Item:
    __slots__ = ("when", "key")

    def __init__(self, when: int, key: int) -> None:
        self.when = when
        self.key = key


def reference_work() -> int:
    push, pop = heapq.heappush, heapq.heappop

    def process():
        total = 0
        while True:
            total += yield total

    procs = [process() for _ in range(64)]
    for proc in procs:
        next(proc)
    heap: list = []
    table = {}
    for n in range(5000):
        push(heap, (n * 7919 % 1013, n))
        push(heap, (n * 104729 % 997, n))
        when, key = pop(heap)
        item = _Item(when, key)
        procs[key & 63].send(item.when)
        table[key & 255] = item
    return len(table)


def reference_s() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class Stopwatch:
    """Times calls and scales each by the reference timings around it."""

    def __init__(self) -> None:
        self.refs: List[float] = [reference_s()]

    def time(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """``(result, host seconds, host seconds at the reference speed)``."""
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        self.refs.append(reference_s())
        return result, raw, raw * REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def speed(self) -> float:
        """Host speed against the nominal host over this stopwatch's life."""
        return REFERENCE_S / statistics.median(self.refs)
