"""Shared-resource primitives: semaphores, FIFO stores, priority stores."""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from itertools import count
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.events import Event


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        ...  # hold the resource
        resource.release()
    """

    def __init__(self, sim, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # busy-time accounting for utilization reports
        self._busy_since: Optional[int] = None
        self._busy_time: int = 0
        for observer in sim.observers:
            observer.watch_resource(self)

    @property
    def in_use(self) -> int:
        """Number of units currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of acquire requests waiting for a free unit."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        sim = self.sim
        event = Event(sim)
        if self._in_use < self.capacity:
            # inline _grant + succeed: the uncontended fast path
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = sim._now
            self._in_use += 1
            event._triggered = True
            event._value = self
            heappush(sim._queue, (sim._now, next(sim._sequence), event))
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, granting the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())
        elif self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.sim.now - self._busy_since
            self._busy_since = None

    def _grant(self, event: Event) -> None:
        if self._in_use == 0 and self._busy_since is None:
            self._busy_since = self.sim._now
        self._in_use += 1
        event.succeed(self)

    def busy_time(self) -> int:
        """Total ns during which at least one unit was held."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Busy fraction over ``elapsed`` ns (default: since t=0)."""
        elapsed = elapsed if elapsed is not None else self.sim.now
        return self.busy_time() / elapsed if elapsed > 0 else 0.0


class Store:
    """Unbounded-or-bounded FIFO channel between processes."""

    def __init__(self, sim, capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Number of get requests blocked on an empty store."""
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Append ``item``; the event fires once the store accepts it."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Take the oldest item; the event fires with it as value."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek_items(self) -> List[Any]:
        """Snapshot of queued items (read-only view for schedulers)."""
        return list(self._items)

    def _admit_putter(self) -> None:
        if self._putters:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()


class PriorityStore(Store):
    """A store whose items are retrieved lowest-key-first.

    Items are ``(priority, item)`` pairs passed to :meth:`put`; ties break
    FIFO.  :meth:`get` yields the bare item.
    """

    def __init__(self, sim, capacity: Optional[int] = None, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._heap: List[Tuple[Any, int, Any]] = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any, priority: Any = 0) -> Event:
        """Insert ``item`` with ``priority`` (lower retrieves first)."""
        event = Event(self.sim)
        if self._getters and not self._heap:
            self._getters.popleft().succeed(item)
            event.succeed()
            return event
        if self.capacity is not None and len(self._heap) >= self.capacity:
            raise RuntimeError("PriorityStore does not support blocking puts")
        heapq.heappush(self._heap, (priority, next(self._seq), item))
        event.succeed()
        # A getter may have been waiting while higher-priority items queue.
        if self._getters:
            _prio, _seq, head = heapq.heappop(self._heap)
            self._getters.popleft().succeed(head)
        return event

    def get(self) -> Event:
        """Take the lowest-priority-key item; ties resolve FIFO."""
        event = Event(self.sim)
        if self._heap:
            _prio, _seq, item = heapq.heappop(self._heap)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._heap:
            _prio, _seq, item = heapq.heappop(self._heap)
            return True, item
        return False, None

    def peek_items(self) -> List[Any]:
        """Snapshot of queued items in retrieval order."""
        return [item for _prio, _seq, item in sorted(self._heap)]
