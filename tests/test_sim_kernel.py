"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    PriorityStore,
    Resource,
    Simulator,
    Store,
)
from repro.sim.engine import EmptySchedule


@pytest.fixture
def sim():
    return Simulator()


class TestEventLoop:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_schedule_runs_callback_at_delay(self, sim):
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(50, lambda: order.append("b"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(99, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_run_until_stops_clock(self, sim):
        sim.schedule(1000, lambda: None)
        sim.run(until=500)
        assert sim.now == 500
        sim.run()
        assert sim.now == 1000

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_run_until_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_run_process_past_deadline_rejected_like_run(self, sim):
        """Both entry points validate ``until`` first: same ValueError,
        and ``run_process`` registers no process."""
        sim.run(until=100)

        def never_started():
            yield sim.timeout(1)

        with pytest.raises(ValueError, match="until lies in the past"):
            sim.run_process(never_started(), until=50)
        assert sim.peek() is None
        assert sim.now == 100

    def test_run_process_leaves_later_work_queued(self, sim):
        """Completion stops the run at that instant; the stop callback
        does not linger to break a later ``run``."""
        fired = []
        sim.schedule(50, fired.append, "late")

        def quick():
            yield sim.timeout(10)
            return "done"

        assert sim.run_process(quick()) == "done"
        assert sim.now == 10 and fired == []
        sim.run()
        assert fired == ["late"] and sim.now == 50

    def test_missed_deadline_leaves_a_resumable_process(self, sim):
        def slow():
            yield sim.timeout(100)
            return "late"

        with pytest.raises(RuntimeError, match="deadline"):
            sim.run_process(slow(), until=10)
        assert sim.now == 10
        sim.run()  # the process finishes without stopping this run
        assert sim.now == 100

    def test_error_out_of_run_process_leaves_a_resumable_process(self, sim):
        def victim():
            yield sim.timeout(5)  # no handler: an interrupt escapes run
            yield sim.timeout(100)

        def main():
            yield sim.timeout(200)

        proc = sim.process(victim())
        sim.schedule(1, proc.interrupt)
        with pytest.raises(RuntimeError, match="uncaught Interrupt"):
            sim.run_process(main())
        sim.run()  # main finishes without stopping this run
        assert sim.now == 200

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_processed_still_runs(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [7]

    def test_timeout_value(self, sim):
        def proc():
            value = yield sim.timeout(10, value="done")
            return value

        assert sim.run_process(proc()) == "done"
        assert sim.now == 10

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-5)


class TestProcess:
    def test_sequential_timeouts_accumulate(self, sim):
        marks = []

        def proc():
            yield sim.timeout(10)
            marks.append(sim.now)
            yield sim.timeout(25)
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [10, 35]

    def test_process_return_value(self, sim):
        def child():
            yield sim.timeout(5)
            return "payload"

        def parent():
            result = yield sim.process(child())
            return result

        assert sim.run_process(parent()) == "payload"

    def test_exception_propagates_to_run_process(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(bad())

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(proc())
        ev.fail(RuntimeError("dead"))
        sim.run()
        assert p.value == "caught dead"

    def test_yield_non_event_raises(self, sim):
        def proc():
            yield 123

        with pytest.raises(TypeError):
            sim.run_process(proc())

    def test_interrupt_wakes_waiter(self, sim):
        def sleeper():
            try:
                yield sim.timeout(10_000)
                return "slept"
            except Interrupt as intr:
                return f"interrupted:{intr.cause}"

        p = sim.process(sleeper())
        sim.schedule(50, p.interrupt, "wakeup")
        sim.run()
        assert p.value == "interrupted:wakeup"
        assert sim.now < 10_000 or p.processed

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_two_processes_interleave(self, sim):
        trace = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trace.append((name, sim.now))

        sim.process(ticker("a", 10))
        sim.process(ticker("b", 15))
        sim.run()
        # At t=30 both fire; b's timeout was enqueued earlier (t=15 vs t=20)
        # so FIFO tie-breaking runs b first.
        assert trace == [("a", 10), ("b", 15), ("a", 20), ("b", 30),
                         ("a", 30), ("b", 45)]


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        def proc():
            results = yield AllOf(sim, [sim.timeout(10, "x"), sim.timeout(30, "y")])
            return (sim.now, sorted(results))

        assert sim.run_process(proc()) == (30, ["x", "y"])

    def test_any_of_fires_on_first(self, sim):
        def proc():
            result = yield AnyOf(sim, [sim.timeout(10, "fast"), sim.timeout(30, "slow")])
            return (sim.now, result)

        assert sim.run_process(proc()) == (10, "fast")

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield AllOf(sim, [])
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_all_of_propagates_failure(self, sim):
        ev = sim.event()

        def proc():
            yield AllOf(sim, [sim.timeout(5), ev])

        p = sim.process(proc())
        ev.fail(KeyError("gone"))
        sim.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)


class TestResource:
    def test_serializes_access(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(hold):
            yield res.acquire()
            start = sim.now
            yield sim.timeout(hold)
            res.release()
            spans.append((start, sim.now))

        sim.process(worker(10))
        sim.process(worker(10))
        sim.run()
        assert spans == [(0, 10), (10, 20)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def worker():
            yield res.acquire()
            yield sim.timeout(10)
            res.release()
            done.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert done == [10, 10, 20]

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_utilization_tracks_busy_time(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield res.acquire()
            yield sim.timeout(40)
            res.release()
            yield sim.timeout(60)

        sim.process(worker())
        sim.run()
        assert res.busy_time() == 40
        assert res.utilization() == pytest.approx(0.4)

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield res.acquire()
            order.append(tag)
            yield sim.timeout(1)
            res.release()

        for tag in range(5):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("item")
            value = yield store.get()
            return value

        assert sim.run_process(proc()) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            value = yield store.get()
            got.append((sim.now, value))

        def producer():
            yield sim.timeout(100)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(100, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        timeline = []

        def producer():
            yield store.put("a")
            timeline.append(("put-a", sim.now))
            yield store.put("b")
            timeline.append(("put-b", sim.now))

        def consumer():
            yield sim.timeout(50)
            item = yield store.get()
            timeline.append((f"got-{item}", sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put-a", 0) in timeline
        assert ("put-b", 50) in timeline

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)

    def test_try_get_empty(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None


class TestPriorityStore:
    def test_orders_by_priority(self, sim):
        store = PriorityStore(sim)
        store.put("low", priority=10)
        store.put("high", priority=1)
        store.put("mid", priority=5)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == ["high", "mid", "low"]

    def test_ties_break_fifo(self, sim):
        store = PriorityStore(sim)
        for i in range(4):
            store.put(f"item{i}", priority=0)
        out = []

        def consumer():
            for _ in range(4):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == ["item0", "item1", "item2", "item3"]

    def test_waiting_getter_served_on_put(self, sim):
        store = PriorityStore(sim)
        got = []

        def consumer():
            got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        store.put("x", priority=3)
        sim.run()
        assert got == ["x"]
