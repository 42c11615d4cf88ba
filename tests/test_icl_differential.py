"""Differential oracle for the ICL's incremental dirty bookkeeping.

The ICL keeps a dirty-slot count per line and a dirty-line count for the
cache, and ``_pick_victim`` skips the clean-line search when every
resident line is dirty.  Hypothesis generates concurrent writes, reads,
trims and ``flush_all`` commands on tiny SSDs with every associativity and
replacement policy, and the counters and victim choices are checked
against the scan-based reference written out here:

* after every command, and on every victim choice, ``dirty_line_count()``
  equals a rescan of the resident lines and every line's ``n_dirty``
  equals the number of its slots whose ``dirty`` flag is set;
* every ``_pick_victim`` call returns the line the old full scan picks,
  with the ``random`` policy drawing from a copy of the cache's RNG;
* every command completes within an event budget, so the locked
  narrow-set flush cannot deadlock, and a line whose count says dirty
  when no slot is cannot spin the flusher forever.
"""

import random

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.ssd.config import CacheConfig, DramConfig
from repro.ssd.device import SSD

from tests.conftest import tiny_ssd_config

_LINES = 12            # twice the 6-line cache below
_LINE_SECTORS = 16     # 4 pages of 2 KB in the tiny config
_EVENT_BUDGET = 20_000

_delay = st.integers(0, 40_000)
_extent = st.tuples(st.integers(0, _LINES - 1),
                    st.integers(0, _LINE_SECTORS - 1),
                    st.integers(1, _LINE_SECTORS))
_command = st.one_of(
    st.tuples(st.sampled_from(["write", "read", "trim"]), _delay, _extent),
    st.tuples(st.just("flush"), _delay, st.none()),
)
_case = st.fixed_dictionaries({
    "associativity": st.sampled_from(["full", "set", "direct"]),
    "replacement": st.sampled_from(["lru", "fifo", "random"]),
    "commands": st.lists(_command, min_size=1, max_size=30),
})


def _scan_dirty(line) -> bool:
    return any(state.dirty for state in line.slots.values())


def _reference_victim(icl, candidates, rng):
    """The pre-counter ``_pick_victim``: a full scan of the candidates."""
    if icl.config.cache.replacement == "random":
        evictable = [line for line in candidates if not line.flushing]
        if not evictable:
            return None
        clean = [line for line in evictable if not _scan_dirty(line)]
        return rng.choice(clean or evictable)
    first_evictable = None
    for line in candidates:
        if line.flushing:
            continue
        if not _scan_dirty(line):
            return line
        if first_evictable is None:
            first_evictable = line
    return first_evictable


def _check_counts(icl) -> None:
    lines = list(icl._lines.values())
    rescan = sum(map(_scan_dirty, lines))
    assert icl.dirty_line_count() == rescan, \
        f"dirty_line_count() {icl.dirty_line_count()}, rescan {rescan}"
    for line in lines:
        dirty = sum(state.dirty for state in line.slots.values())
        assert line.n_dirty == dirty, \
            f"line {line.line_id}: n_dirty {line.n_dirty}, {dirty} dirty slots"


def _build(case):
    sim = Simulator()
    associativity = case["associativity"]
    config = tiny_ssd_config(
        dram=DramConfig(size=64 * 1024),       # a 6-line cache
        cache=CacheConfig(associativity=associativity,
                          n_sets=2 if associativity == "set" else 4, ways=2,
                          replacement=case["replacement"], readahead=False))
    ssd = SSD(sim, config, data_emulation=False)
    icl = ssd.icl
    assert icl.capacity_lines == 6
    real_pick = icl._pick_victim
    picks = []

    def checked_pick(candidates):
        _check_counts(icl)
        candidates = list(candidates)
        rng = random.Random(0)    # state copied from the cache's RNG below
        rng.setstate(icl._rng.getstate())
        expected = _reference_victim(icl, candidates, rng)
        got = real_pick(candidates)
        assert got is expected, f"victim {got}, scan picks {expected}"
        picks.append((icl.dirty_line_count() == len(icl._lines), got))
        return got

    icl._pick_victim = checked_pick
    return sim, ssd, picks


def _run(sim) -> None:
    """Run to the end, stopping at the first failed check; a livelock
    fails on the budget instead of hanging."""
    for _ in range(_EVENT_BUDGET):
        if sim.peek() is None:
            return
        sim.step()
        try:
            sim.check_orphan_failures()
        except AssertionError as failed:
            # a fresh error: the process's traceback through every
            # generator frame makes hypothesis's shrinking crawl
            raise AssertionError(str(failed)) from None
    raise AssertionError(f"still running after {_EVENT_BUDGET} events")


def _command_process(sim, ssd, command, finished):
    kind, delay, extent = command
    yield sim.timeout(delay)
    if kind == "flush":
        yield from ssd.flush()
    else:
        line, offset, count = extent
        start = line * _LINE_SECTORS + offset
        if kind == "write":
            yield from ssd.write(start, count)
        elif kind == "read":
            yield from ssd.read(start, count)
        else:
            yield from ssd.trim(start, count)
    _check_counts(ssd.icl)
    finished.append(command)


# no explain phase: annotating a failing case replays it thousands of
# times, which takes minutes and adds nothing to the shrunk case
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(_case)
# a trim of part of a dirty line, and a rewrite racing a conflict flush
@example({"associativity": "full", "replacement": "lru", "commands": [
    ("write", 0, (0, 0, 16)), ("trim", 20_000, (0, 0, 4))]})
@example({"associativity": "direct", "replacement": "fifo", "commands": [
    ("write", 0, (0, 0, 4)), ("write", 20_000, (4, 0, 4)),
    ("write", 21_000, (0, 0, 4)), ("read", 40_000, (0, 0, 4))]})
def test_counters_and_victims_match_the_scan(case):
    sim, ssd, _ = _build(case)
    finished = []
    for command in case["commands"]:
        sim.process(_command_process(sim, ssd, command, finished))
    _run(sim)
    assert len(finished) == len(case["commands"])
    _check_counts(ssd.icl)


def test_sizes_reach_both_victim_paths():
    """The generated sizes make the oracle bite: a write burst over twice
    the cache's lines picks victims both with every resident line dirty
    (the shortcut) and with a clean line to find (the scan)."""
    for associativity in ("full", "set", "direct"):
        sim, ssd, picks = _build({"associativity": associativity,
                                  "replacement": "lru"})
        finished = []
        for line in range(2 * _LINES):
            command = ("write", 3000 * line,
                       (line % _LINES, 0, _LINE_SECTORS))
            sim.process(_command_process(sim, ssd, command, finished))
        _run(sim)
        assert len(finished) == 2 * _LINES
        assert any(all_dirty for all_dirty, _ in picks), associativity
        assert any(victim is not None and not victim.is_dirty
                   for _, victim in picks), associativity
