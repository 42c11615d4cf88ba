"""Generator-driven simulation processes.

Hot-path note: ``_resume`` runs once per generator step — by far the
most frequent call in any simulation — so it reads the waited event's
underscore fields directly and attempts the common wait case (a live
event on the same simulator) inline, deferring to :meth:`_wait_on` only
for error diagnostics and already-processed targets.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from repro.sim.events import Event, Interrupt


class Process(Event):
    """A process wraps a generator that yields events to wait on.

    The process itself is an event: it triggers (with the generator's
    return value) when the generator finishes, so processes can wait on
    one another simply by yielding them.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim, generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {type(generator)!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event = None
        # Kick off at the current instant (after already-queued events);
        # inlined succeed() — the bootstrap is ours, never pre-triggered.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap._triggered = True
        heappush(sim._queue, (sim._now, next(sim._sequence), bootstrap))
        for observer in sim.observers:
            observer.watch_process(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished or failed."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise RuntimeError("cannot interrupt a finished process")
        poke = Event(self.sim)
        poke.callbacks.append(lambda _ev: self._throw(Interrupt(cause)))
        poke.succeed()

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise RuntimeError("uncaught Interrupt in process") from exc
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        # Fast path: target is a live event on our simulator — subscribe
        # directly.  Anything else (non-event, foreign simulator,
        # already-processed) falls through to the checked slow path.
        try:
            callbacks = target.callbacks
            target_sim = target.sim
        except AttributeError:
            self._wait_on(target)  # raises the diagnostic TypeError
            return
        if callbacks is not None and target_sim is self.sim \
                and isinstance(target, Event):
            self._waiting_on = target
            callbacks.append(self._resume)
        else:
            self._wait_on(target)

    def _wait_on(self, target) -> None:
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded a non-event: {target!r} "
                "(yield sim.timeout(...), a Store get/put, or another process)")
        if target.sim is not self.sim:
            raise ValueError("yielded event belongs to a different simulator")
        self._waiting_on = target
        target.add_callback(self._resume)
    # NOTE: _resume subscribes via callbacks.append directly on its fast
    # path; add_callback here covers the already-processed target case.
