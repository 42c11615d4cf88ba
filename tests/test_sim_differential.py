"""Differential oracle for the event loop.

``Simulator.run`` inlines the body of ``step`` for speed, and switches
to a loop of ``step`` calls when an observer is attached.  Hypothesis
generates small process graphs — timeouts, cancels and double cancels,
``AllOf``/``AnyOf``, ``Resource`` contention, interrupts, failing and
joined processes, ``run(until=...)`` cut-points and a closing ``run`` or
``run_process`` — and every graph runs three ways:

* ``plain``: the inlined loop;
* ``step``: a reference loop of ``step()`` calls written out here;
* ``observed``: the real entry points with a no-op ``Observer``
  attached.

All three must agree on the dispatch order as ``(now, event type)``,
``events_processed``, the final clock, every process's results, any
exception raised and the first orphaned failure.
"""

import heapq
from contextlib import contextmanager
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Interrupt, Resource, Simulator, observe

# -- the generated process graphs ---------------------------------------------

_delay = st.integers(0, 20)
_op = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("cancel"), st.integers(1, 20), st.booleans()),
    st.tuples(st.just("all"), st.lists(_delay, max_size=3)),
    st.tuples(st.just("any"), st.lists(_delay, min_size=1, max_size=3)),
    st.tuples(st.just("hold"), st.integers(0, 1), _delay),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("fail")),
)
# (catches interrupts, ops)
_proc = st.tuples(st.booleans(), st.lists(_op, max_size=6))
_graph = st.fixed_dictionaries({
    "capacities": st.tuples(st.integers(1, 2), st.integers(1, 2)),
    "procs": st.lists(_proc, max_size=5),
    "cuts": st.lists(st.integers(0, 60), max_size=3).map(sorted),
    # None: close with run(); else run_process(main, until=deadline)
    "main": st.none() | st.tuples(_proc, st.none() | st.integers(0, 80)),
})


def _process(sim, me, spec, ctx):
    """One generated process; logs every step's outcome in ``ctx.log``."""
    catches, ops = spec
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "fail":
            raise ValueError(f"p{me} failed at op {index}")
        others = [p for i, p in enumerate(ctx.procs) if i != me]
        try:
            if kind == "timeout":
                value = yield sim.timeout(op[1], index)
            elif kind == "cancel":
                doomed = sim.timeout(op[1])
                doomed.cancel()
                if op[2]:
                    doomed.cancel()
                value = yield sim.timeout(op[1] + 1)
            elif kind == "all":
                value = yield sim.all_of([sim.timeout(d, d) for d in op[1]])
            elif kind == "any":
                value = yield sim.any_of([sim.timeout(d, d) for d in op[1]])
            elif kind == "hold":
                gate = ctx.resources[op[1]]
                yield gate.acquire()
                try:
                    value = yield sim.timeout(op[2], op[2])
                finally:
                    gate.release()
            elif kind == "interrupt":
                target = others[op[1] % len(others)] if others else None
                if target is not None and target.is_alive:
                    target.interrupt(me)
                value = yield sim.timeout(0)
            else:  # join
                value = (yield others[op[1] % len(others)]) if others else None
        except Interrupt as interrupt:
            if not catches:
                raise
            value = ("interrupted", interrupt.cause)
        except ValueError as error:  # a joined process failed
            value = ("joined a failure", str(error))
        ctx.log.append((sim.now, me, index, repr(value)))
    return (me, len(ops))


# -- the three ways to run a graph --------------------------------------------


def _step_run(sim, until=None):
    """Reference ``run``: peek and ``step()`` until drain or deadline."""
    if until is not None and until < sim.now:
        raise ValueError("until lies in the past")
    while True:
        when = sim.peek()
        if when is None or (until is not None and when > until):
            break
        sim.step()
    if until is not None:
        sim._now = until


def _step_run_process(sim, generator, until=None):
    """Reference ``run_process``: ``step()`` until the process is done."""
    if until is not None and until < sim.now:
        raise ValueError("until lies in the past")
    proc = sim.process(generator)
    proc.callbacks.append(lambda _ev: None)  # as the real stop callback
    while not proc.processed:
        when = sim.peek()
        if when is None or (until is not None and when > until):
            if until is not None:
                sim._now = until
            sim.check_orphan_failures()
            raise RuntimeError("process did not complete"
                               + ("" if until is None
                                  else " before the deadline"))
        sim.step()
    if not proc.ok:
        raise proc.value
    return proc.value


@contextmanager
def _recording_pops(dispatched):
    """Log every live event the kernel pops: its dispatch order."""
    real = heapq.heappop

    def pop(heap):
        entry = real(heap)
        if isinstance(entry[-1], Event) and not entry[-1].cancelled:
            dispatched.append((entry[0], type(entry[-1]).__name__))
        return entry

    heapq.heappop = pop
    try:
        yield
    finally:
        heapq.heappop = real


def _execute(graph, mode):
    sim = Simulator()
    # set explicitly, so an armed switch (REPRO_SANITIZE=1) cannot make
    # the plain and step modes observed
    sim.observers[:] = [observe.Observer()] if mode == "observed" else []
    run, run_process = ((_step_run, _step_run_process) if mode == "step"
                        else (Simulator.run, Simulator.run_process))
    ctx = SimpleNamespace(
        log=[], procs=[],
        resources=[Resource(sim, capacity) for capacity in graph["capacities"]])
    for me, spec in enumerate(graph["procs"]):
        ctx.procs.append(sim.process(_process(sim, me, spec, ctx)))
    dispatched = []
    with _recording_pops(dispatched):
        try:
            for cut in graph["cuts"]:
                run(sim, cut)
            if graph["main"] is None:
                run(sim)
                outcome = ("drained",)
            else:
                spec, deadline = graph["main"]
                main = _process(sim, len(ctx.procs), spec, ctx)
                outcome = ("returned", run_process(sim, main, deadline))
        except Exception as error:  # compared across the three modes
            outcome = ("raised", type(error).__name__, str(error))
    try:
        sim.check_orphan_failures()
        orphan = None
    except Exception as error:  # the first failure nobody waited on
        orphan = repr(error)
    return {
        "dispatched": dispatched,
        "events": sim.events_processed,
        "now": sim.now,
        "log": ctx.log,
        "outcome": outcome,
        "orphan": orphan,
        "results": [(p.processed, p.ok, repr(p.value)) if p.triggered
                    else None for p in ctx.procs],
    }


@settings(max_examples=300, deadline=None)
@given(_graph)
def test_plain_step_and_observed_loops_agree(graph):
    plain = _execute(graph, "plain")
    assert _execute(graph, "step") == plain
    assert _execute(graph, "observed") == plain


def test_generated_graphs_reach_the_interesting_paths():
    """A fixed graph that touches every op kind, a cut-point and a
    missed deadline, so the oracle provably compares more than a
    trivial drain."""
    graph = {
        "capacities": (1, 2),
        "procs": [
            (True, [("hold", 0, 9), ("cancel", 3, True), ("any", [4, 2])]),
            (True, [("hold", 0, 5), ("interrupt", 0), ("join", 0)]),
            (True, [("all", [1, 6]), ("timeout", 30), ("fail",)]),
            (True, [("timeout", 2), ("interrupt", 1), ("join", 1),
                    ("join", 2)]),
        ],
        "cuts": [7],
        "main": ((True, [("timeout", 50), ("join", 0)]), 40),
    }
    plain = _execute(graph, "plain")
    assert plain["outcome"] == (
        "raised", "RuntimeError",
        "process did not complete before the deadline")
    assert plain["now"] == 40
    assert len(plain["dispatched"]) == plain["events"] > 20
    assert {kind for _t, kind in plain["dispatched"]} >= {
        "Event", "Timeout", "Process", "AnyOf", "AllOf"}
    assert _execute(graph, "step") == plain
    assert _execute(graph, "observed") == plain
