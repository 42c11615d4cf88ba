"""The event loop at the heart of the simulation.

Hot-path note: :meth:`Simulator.run` inlines the pop-and-process body of
:meth:`Simulator.step` (and of ``Event._process``) with the heap and
counters bound to locals — the loop runs hundreds of thousands of times
per macro benchmark and attribute lookups dominate otherwise.  ``step``
is the reference: ``run`` drives it instead whenever an observer is
attached (:mod:`repro.sim.observe`), and a differential test
(``tests/test_sim_differential.py``) holds the plain loop, a loop of
``step`` calls and the observed loop to the same dispatch order,
counters, clock, results and errors.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Iterator, List, Optional

from repro.sim import observe
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.tracer import NULL_TRACER


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class _StopRun(Exception):
    """Raised out of ``run`` when the ``run_process`` process finishes."""


def _stop_run(_event: Event) -> None:
    raise _StopRun()


class Simulator:
    """Deterministic discrete-event simulator.

    Events scheduled for the same instant are processed in the order they
    were enqueued (FIFO tie-break via a monotonically increasing sequence
    number), which keeps every run bit-for-bit reproducible.

    Cancelled events (see :meth:`~repro.sim.events.Timeout.cancel`) stay
    in the heap as tombstones and are discarded when popped — without
    counting toward ``events_processed``, so a cancel storm does not
    perturb the simulation-speed metric.

    Every simulator carries a ``tracer``: the shared no-op
    ``NULL_TRACER`` unless a construction hook attached a live span
    recorder.  Spans record simulated time only and never schedule
    events, so tracing cannot perturb results.  It also carries
    ``observers`` (:mod:`repro.sim.observe`), empty unless a
    construction hook attached some.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._queue: list = []
        self._sequence: Iterator[int] = count()
        self._event_count: int = 0
        self._orphan_failures: list = []
        self.tracer = NULL_TRACER
        self.observers: List[observe.Observer] = []
        for hook in observe.hooks():
            hook(self)

    def _record_orphan_failure(self, event) -> None:
        self._orphan_failures.append(event)

    def _notify_failure(self, error: BaseException) -> None:
        """Hand a run failure to the observers' post-mortems."""
        for observer in self.observers:
            observer.on_failure(error)

    def check_orphan_failures(self) -> None:
        """Raise the first failure of a process nobody waited on."""
        if self._orphan_failures:
            error = self._orphan_failures[0].value
            self._notify_failure(error)
            raise error

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far (simulation-speed metric)."""
        return self._event_count

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        """A fresh pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now with ``value``."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Register ``generator`` as a process starting at this instant."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event firing as soon as any event in ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, delay: int, event: Event) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + int(delay), next(self._sequence), event))

    def schedule(self, delay: int, callback, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` ns; returns the event."""
        event = Event(self)
        event.callbacks.append(lambda _ev: callback(*args))
        event.succeed(delay=delay)
        return event

    # -- execution -------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty.

        Tombstoned (cancelled) heads are purged on the way, so the
        answer always refers to an event that will actually fire.
        """
        queue = self._queue
        while queue:
            if queue[0][2]._cancelled:
                heapq.heappop(queue)
            else:
                return queue[0][0]
        return None

    def step(self) -> None:
        """Process exactly one live event (skipping tombstones)."""
        queue = self._queue
        while queue:
            when, _seq, event = heapq.heappop(queue)
            if event._cancelled:
                continue
            self._now = when
            self._event_count += 1
            observers = self.observers
            for observer in observers:
                observer.on_event(when, event)
            event._process()
            for observer in observers:
                observer.on_dispatched(event)
            return
        raise EmptySchedule()

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError("until lies in the past")
        if self.observers:
            self._run_observed(until)
            return
        # Inlined step()/Event._process() with locals for the hot loop.
        queue = self._queue
        pop = heapq.heappop
        record_orphan = self._record_orphan_failure
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return
            when, _seq, event = pop(queue)
            if event._cancelled:
                continue
            self._now = when
            self._event_count += 1
            event._processed = True
            callbacks, event.callbacks = event.callbacks, None
            if not event._ok and not callbacks:
                record_orphan(event)
            for callback in callbacks:
                callback(event)
        if until is not None:
            self._now = until

    def _run_observed(self, until: Optional[int]) -> None:
        """:meth:`run` as a loop of :meth:`step` calls, then ``on_stop``."""
        when = self.peek()
        try:
            while when is not None and (until is None or when <= until):
                self.step()
                when = self.peek()
            if until is not None:
                self._now = until
        finally:
            drained = when is None and until is None
            for observer in self.observers:
                observer.on_stop(drained)

    def run_process(self, generator, until: Optional[int] = None) -> Any:
        """Convenience: drive ``generator`` as a process to completion.

        Runs the simulation only until the process finishes (other
        queued work — background daemons, periodic samplers — stays
        queued), returning the process return value.  Raises if the
        process fails, or if the queue drains / ``until`` passes first.
        It is :meth:`run` plus a last callback on the process event that
        raises a private stop exception out of the loop.

        Clock contract: on success ``now`` is the instant the process
        completed (pending events may remain queued).  On the failure
        paths with a deadline — the next event lies beyond ``until``,
        or the queue drains early — the clock is advanced to ``until``
        before raising, matching :meth:`run`, so ``now`` never sits
        behind a deadline that has already passed.
        """
        if until is not None and until < self._now:
            raise ValueError("until lies in the past")
        proc = self.process(generator)
        # the process is private to this call and observers saw it at
        # construction, so the stop runs after every other callback
        proc.callbacks.append(_stop_run)
        try:
            self.run(until)
        except _StopRun:
            pass
        finally:
            if not proc._processed:  # leave no stop behind for a later run
                proc.callbacks.remove(_stop_run)
        if not proc._processed:
            self.check_orphan_failures()
            error = RuntimeError("process did not complete"
                                 + ("" if until is None
                                    else " before the deadline"))
            self._notify_failure(error)
            raise error
        if not proc._ok:
            self._notify_failure(proc._value)
            raise proc._value
        return proc._value
