"""Event primitives for the simulation kernel.

Hot-path note: this module (with :mod:`repro.sim.engine` and
:mod:`repro.sim.process`) is the innermost loop of every simulation —
hundreds of thousands of events per macro benchmark (see
``docs/PERFORMANCE.md``).  The implementation therefore trades a little
elegance for speed: ``__slots__`` everywhere, direct underscore-field
access between the three kernel modules instead of property calls, and
constructors that initialize fields inline rather than chaining through
``super().__init__``.  Behavioural contracts are pinned by the golden
determinism suite, so any change here must keep event schedules
bit-identical.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* when ``succeed`` or
    ``fail`` is called (it is then on the simulator's queue), and becomes
    *processed* once the simulator pops it and runs its callbacks.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_cancelled")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` was called (event is queued)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator popped the event and ran callbacks."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True if the event was tombstoned before processing."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """False if the event was triggered via :meth:`fail`."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value (or exception); raises while still pending."""
        if not self._processed and not self._triggered:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully; callbacks run after ``delay`` ns."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        if delay:
            self.sim._enqueue(delay, self)
        else:
            # zero-delay trigger is the overwhelmingly common case:
            # push at the current instant without the _enqueue call
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence), self))
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._enqueue(delay, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` on processing (immediately if already done)."""
        if self._processed:
            # Late subscriber: run at the current instant, preserving order.
            immediate = Event(self.sim)
            immediate.callbacks.append(lambda _ev: callback(self))
            immediate.succeed()
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        # NOTE: Simulator.run inlines this body in its plain loop;
        # tests/test_sim_differential.py holds the two to one behaviour.
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if not self._ok and not callbacks:
            # a failure nobody is waiting on would otherwise vanish and
            # typically surface as a deadlock; let the simulator report it
            self.sim._record_orphan_failure(self)
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "processed" if self._processed else (
                "triggered" if self._triggered else "pending"))
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation.

    A pending timeout may be :meth:`cancel`-led — e.g. an elevator's
    anticipation timer obsoleted by an arriving request.  Cancellation
    tombstones the heap entry: the simulator drops it lazily when it
    reaches the head of the queue, without rebuilding the heap and
    without counting it in ``events_processed``.
    """

    __slots__ = ("delay",)

    def __init__(self, sim, delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inline the Event/queue setup: this constructor runs once per
        # simulated wait and the super().__init__ chain is measurable.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.delay = delay = int(delay)
        # delay was validated non-negative above; push directly
        heappush(sim._queue, (sim._now + delay, next(sim._sequence), self))

    def cancel(self) -> None:
        """Tombstone the timeout so it never fires.

        Only meaningful while the timeout is still queued; cancelling a
        processed timeout is an error.  Waiters that registered before
        the cancel will never be resumed by this event, so only cancel
        timeouts you own exclusively (the usual speculative-timer case).
        """
        if self._processed:
            raise RuntimeError("cannot cancel a processed timeout")
        if self._cancelled:
            # double cancel: two owners think they hold this timer —
            # benign for the schedule (tombstoning is idempotent) but
            # worth surfacing to observers such as the sanitizer
            for observer in self.sim.observers:
                observer.on_double_cancel(self)
        self._cancelled = True


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim, events) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        child_done = self._child_done
        for event in self.events:
            if event._processed:
                if not event._ok:
                    self.fail(event._value)
                    return
            else:
                self._pending += 1
                # children are pending or queued here, so their callback
                # list exists; append directly (no add_callback dispatch)
                event.callbacks.append(child_done)
        self._check()

    def _child_done(self, event: Event) -> None:
        self._pending -= 1
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._check()

    def _check(self) -> None:
        raise NotImplementedError

    def _results(self):
        return [event._value for event in self.events
                if event._processed and event._ok]


class AllOf(_Condition):
    """Triggers once every child event has been processed."""

    __slots__ = ()

    def _check(self) -> None:
        if self._pending == 0 and not self._triggered:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Triggers as soon as any child event has been processed."""

    __slots__ = ()

    def _check(self) -> None:
        if self._triggered:
            return
        if self._pending < len(self.events) or not self.events:
            done = [event for event in self.events if event._processed]
            self.succeed(done[0]._value if done else None)
