"""Internal Cache Layer: the DRAM data cache in front of the FTL.

Write-back caching with configurable associativity and replacement,
deferred read-modify-write for sub-page writes, watermark-driven flushing,
and the paper's parallelism-aware readahead (Section IV-C): when accesses
run sequentially across superpage lines, upcoming lines — which stripe
across *all* dies — are prefetched ahead of demand.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.instructions import InstructionMix
from repro.sim import AllOf, Resource
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.computation.cores import CpuComplex
from repro.ssd.computation.dram import InternalDram
from repro.ssd.config import SSDConfig
from repro.ssd.firmware.ftl.ftl import FlashTranslationLayer
from repro.ssd.firmware.requests import LineRequest

_SECTOR = 512


class _SlotState:
    """Cache state of one flash page within a line."""

    __slots__ = ("sector_mask", "dirty", "full", "buf", "version")

    def __init__(self) -> None:
        self.sector_mask = 0      # sectors with valid data in cache
        self.dirty = False
        self.full = False         # whole page present
        self.buf: Optional[bytearray] = None
        self.version = 0          # bumped per write; guards flush races


class _CacheLine:
    __slots__ = ("line_id", "slots", "flushing", "n_dirty")

    def __init__(self, line_id: int) -> None:
        self.line_id = line_id
        self.slots: Dict[int, _SlotState] = {}
        self.flushing = False
        self.n_dirty = 0          # slots whose dirty flag is set

    def dirty_slots(self) -> List[int]:
        return [s for s, state in self.slots.items() if state.dirty]

    @property
    def is_dirty(self) -> bool:
        return self.n_dirty > 0


class _LineLockTable:
    """Per-line mutual exclusion with refcounted cleanup."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._locks: Dict[int, Tuple[Resource, int]] = {}

    def acquire(self, line_id: int):
        if line_id in self._locks:
            lock, refs = self._locks[line_id]
            self._locks[line_id] = (lock, refs + 1)
        else:
            lock = Resource(self.sim, 1, name=f"line{line_id}")
            self._locks[line_id] = (lock, 1)
        return lock.acquire()  # simlint: disable=SIM106 -- lock-table API: the paired release() method undoes this; callers hold it in try/finally

    def release(self, line_id: int) -> None:
        lock, refs = self._locks[line_id]
        lock.release()
        if refs == 1:
            del self._locks[line_id]
        else:
            self._locks[line_id] = (lock, refs - 1)


class InternalCacheLayer:
    def __init__(self, sim, config: SSDConfig, cores: CpuComplex,
                 dram: InternalDram, ftl: FlashTranslationLayer,
                 data_emulation: bool = False, rng_seed: int = 7) -> None:
        self.sim = sim
        self.config = config
        self.cores = cores
        self.dram = dram
        self.ftl = ftl
        self.data_emulation = data_emulation
        self._rng = random.Random(rng_seed)
        cache = config.cache
        self.enabled = cache.enabled
        cache_bytes = int(config.dram.size * cache.fraction_of_dram)
        self.capacity_lines = max(4, cache_bytes // config.superpage_size)
        self.page_size = config.geometry.page_size
        self.sectors_per_page = self.page_size // _SECTOR
        self.slots_per_line = config.superpage_pages
        self._full_mask = (1 << self.sectors_per_page) - 1
        self._lines: "OrderedDict[int, _CacheLine]" = OrderedDict()
        self._dirty_lines = 0     # resident lines with a dirty slot
        self._locks = _LineLockTable(sim)
        self._lookup_mix = InstructionMix.typical(config.costs.icl_lookup)
        self._fill_mix = InstructionMix.typical(config.costs.icl_fill)
        # readahead detector
        self._seq_next_line = -1
        self._seq_run = 0
        # flusher coordination
        self._line_freed = None   # event set while writers wait for space
        self._flush_workers_busy = 0
        self._data_base = 64 * 1024 * 1024  # cache region offset in DRAM
        # statistics
        self.read_hits = 0
        self.read_misses = 0
        self.writes_absorbed = 0
        self.readaheads = 0
        self.lines_flushed = 0
        self.rmw_fetches = 0

    # -- helpers -------------------------------------------------------------

    def _line_address(self, line_id: int, slot: int) -> int:
        index = (line_id % max(1, self.capacity_lines)) * self.slots_per_line + slot
        return self._data_base + index * self.page_size

    def _sector_mask(self, offset: int, count: int) -> int:
        return ((1 << count) - 1) << offset

    def dirty_line_count(self) -> int:
        return self._dirty_lines

    def _mark_slot(self, line: _CacheLine, state: _SlotState,
                   dirty: bool) -> None:
        """Set one slot's dirty flag, keeping both dirty counts."""
        if state.dirty == dirty:
            return
        state.dirty = dirty
        if dirty:
            line.n_dirty += 1
            if line.n_dirty == 1:
                self._dirty_lines += 1
        else:
            line.n_dirty -= 1
            if line.n_dirty == 0:
                self._dirty_lines -= 1

    def _drop_line(self, line_id: int) -> None:
        """Make a line non-resident, keeping the dirty-line count."""
        line = self._lines.pop(line_id, None)
        if line is not None and line.n_dirty:
            self._dirty_lines -= 1

    def cached_line_count(self) -> int:
        return len(self._lines)

    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    # -- placement policy -----------------------------------------------------

    def _conflicting_lines(self, line_id: int) -> List[_CacheLine]:
        """Lines competing for the same cache frame(s) as ``line_id``."""
        assoc = self.config.cache.associativity
        if assoc == "full":
            return list(self._lines.values())
        n_sets = self.config.cache.n_sets
        target_set = line_id % n_sets
        same_set = [line for line in self._lines.values()
                    if line.line_id % n_sets == target_set]
        return same_set

    def _set_capacity(self) -> int:
        cache = self.config.cache
        if cache.associativity == "full":
            return self.capacity_lines
        if cache.associativity == "direct":
            return 1
        return cache.ways

    def _pick_victim(self, candidates) -> Optional[_CacheLine]:
        policy = self.config.cache.replacement
        if policy == "random":
            evictable = [line for line in candidates if not line.flushing]
            if not evictable:
                return None
            clean = [line for line in evictable if not line.is_dirty]
            return self._rng.choice(clean or evictable)
        # lru/fifo: candidates follow the OrderedDict's recency/insertion
        # order, so the victim is simply the first clean non-flushing
        # line, falling back to the first non-flushing (dirty) one.
        if self._dirty_lines == len(self._lines):
            # every resident line is dirty: there is no clean one to find
            return next((line for line in candidates if not line.flushing),
                        None)
        first_evictable = None
        for line in candidates:
            if line.flushing:
                continue
            if not line.is_dirty:
                return line
            if first_evictable is None:
                first_evictable = line
        return first_evictable

    def _touch(self, line: _CacheLine) -> None:
        # the line may have been evicted by a concurrent request while we
        # were filling it; touching recency only applies if still resident
        if self.config.cache.replacement == "lru" \
                and line.line_id in self._lines:
            self._lines.move_to_end(line.line_id)

    # -- the public request paths ---------------------------------------------

    def write(self, req: LineRequest):
        """Process: absorb a line write into the cache (write-back)."""
        tracer = self.sim.tracer
        with (tracer.span("icl.write", req.track, line=req.line_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if not self.enabled:
                yield from self._write_through(req)
                return
            yield self._locks.acquire(req.line_id)
            try:
                yield from self.cores.execute("icl", self._lookup_mix)
                line = yield from self._ensure_line(req.line_id)
                for slot, (sec_off, sec_n) in req.page_sectors.items():
                    state = line.slots.setdefault(slot, _SlotState())
                    mask = self._sector_mask(sec_off, sec_n)
                    state.sector_mask |= mask
                    self._mark_slot(line, state, True)
                    state.version += 1
                    if state.sector_mask == self._full_mask:
                        state.full = True
                    if self.data_emulation:
                        if state.buf is None:
                            state.buf = bytearray(self.page_size)
                        payload = req.data_slices.get(slot, b"")
                        start = sec_off * _SECTOR
                        state.buf[start:start + len(payload)] = payload
                    yield from self.dram.access(
                        self._line_address(req.line_id, slot),
                        sec_n * _SECTOR, write=True)
                self._touch(line)
                self.writes_absorbed += 1
            finally:
                self._locks.release(req.line_id)
        yield from self._maybe_flush()

    def read(self, req: LineRequest):
        """Process: serve a line read; returns {slot: bytes|None}."""
        tracer = self.sim.tracer
        with (tracer.span("icl.read", req.track, line=req.line_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if not self.enabled:
                result = yield from self._read_through(req)
                return result
            yield self._locks.acquire(req.line_id)
            try:
                yield from self.cores.execute("icl", self._lookup_mix)
                line = self._lines.get(req.line_id)
                missing = self._missing_slots(line, req)
                if not missing:
                    self.read_hits += 1
                else:
                    self.read_misses += 1
                    line = yield from self._ensure_line(req.line_id)
                    fetched = yield from self.ftl.service_line_reads(
                        req.line_id, missing, track=req.track)
                    yield from self.cores.execute("icl", self._fill_mix)
                    for slot in missing:
                        state = line.slots.setdefault(slot, _SlotState())
                        self._merge_fetch(state, fetched.get(slot))
                        yield from self.dram.access(
                            self._line_address(req.line_id, slot),
                            self.page_size, write=True)
                result = {}
                for slot, (sec_off, sec_n) in req.page_sectors.items():
                    yield from self.dram.access(
                        self._line_address(req.line_id, slot), sec_n * _SECTOR)
                    result[slot] = self._extract(line, slot, sec_off, sec_n)
                self._touch(line)
            finally:
                self._locks.release(req.line_id)
        self._update_readahead(req.line_id)
        return result

    def flush_all(self):
        """Process: flush every dirty line (host FLUSH command)."""
        dirty = [line_id for line_id, line in self._lines.items()
                 if line.is_dirty]
        for line_id in dirty:
            yield from self._locked_flush(line_id)

    def trim(self, req: LineRequest):
        """Process: deallocate a line's slots (TRIM / NVMe DSM).

        Drops any cached copies (including dirty data — TRIM says the
        host no longer cares) and unbinds the mapping in the FTL.
        """
        yield self._locks.acquire(req.line_id)
        try:
            yield from self.cores.execute("icl", self._lookup_mix)
            line = self._lines.get(req.line_id)
            if line is not None:
                for slot in req.page_sectors:
                    state = line.slots.pop(slot, None)
                    if state is not None:
                        self._mark_slot(line, state, False)
                if not line.slots:
                    self._drop_line(req.line_id)
            yield from self.ftl.trim(req.line_id, list(req.page_sectors),
                                     track=req.track)
        finally:
            self._locks.release(req.line_id)

    # -- cache-miss plumbing ------------------------------------------------------

    def _missing_slots(self, line: Optional[_CacheLine],
                       req: LineRequest) -> List[int]:
        missing = []
        for slot, (sec_off, sec_n) in req.page_sectors.items():
            mask = self._sector_mask(sec_off, sec_n)
            state = line.slots.get(slot) if line else None
            if state is None or (not state.full
                                 and (state.sector_mask & mask) != mask):
                missing.append(slot)
        return missing

    def _merge_fetch(self, state: _SlotState, page_data: Optional[bytes]) -> None:
        """Install fetched flash data under any dirty cached sectors."""
        if self.data_emulation:
            fresh = bytearray(page_data or bytes(self.page_size))
            if state.buf is not None and state.sector_mask:
                for sector in range(self.sectors_per_page):
                    if state.sector_mask >> sector & 1:
                        start = sector * _SECTOR
                        fresh[start:start + _SECTOR] = \
                            state.buf[start:start + _SECTOR]
            state.buf = fresh
        state.sector_mask = self._full_mask
        state.full = True

    def _extract(self, line: _CacheLine, slot: int, sec_off: int,
                 sec_n: int) -> Optional[bytes]:
        if not self.data_emulation:
            return None
        state = line.slots[slot]
        start = sec_off * _SECTOR
        return bytes(state.buf[start:start + sec_n * _SECTOR])

    # -- allocation / eviction -----------------------------------------------------

    def _ensure_line(self, line_id: int):
        """Process: return the cache line, evicting if space demands it.

        When every candidate victim is dirty, the requester does not
        flush synchronously: it wakes the background flusher (which
        drains at full die parallelism) and waits for a clean line —
        otherwise each write serializes on its own victim's program and
        steady-state ingest collapses far below the flash drain rate.
        """
        line = self._lines.get(line_id)
        if line is not None:
            return line
        full_assoc = self.config.cache.associativity == "full"
        while True:
            if full_assoc:
                # fully associative: any frame conflicts, so no candidate
                # list is needed until eviction time (values() is a view)
                if len(self._lines) < self.capacity_lines:
                    break
                conflicts = self._lines.values()
            else:
                conflicts = self._conflicting_lines(line_id)
                if (len(self._lines) < self.capacity_lines
                        and len(conflicts) < self._set_capacity()):
                    break
            victim = self._pick_victim(conflicts)
            if victim is not None and not victim.is_dirty:
                self._drop_line(victim.line_id)
                break
            if victim is not None and not full_assoc:
                # a narrow set: flush the dirty victim under its own lock,
                # then choose again, since a write may have raced the flush.
                # Deadlock-free: a line becomes resident only under its own
                # lock, so a waiter here found its own line absent before
                # it saw the victim resident, and the victim's holder, if
                # it waits here too, found the victim absent later still.
                # Those moments rise along any chain of waits, so no chain
                # closes into a cycle.
                yield from self._locked_flush(victim.line_id)
                continue
            # all candidates dirty or mid-flush: lean on the daemon
            self._start_flush_daemon()
            if self._line_freed is None:
                self._line_freed = self.sim.event()
            yield self._line_freed
        line = _CacheLine(line_id)
        self._lines[line_id] = line
        return line

    def _flush_line(self, line_id: int):
        """Process: write a line's dirty slots down to the FTL.

        Callers go through ``_locked_flush``: the line's lock keeps a
        concurrent trim from popping the slots this flush indexes.
        """
        line = self._lines.get(line_id)
        if line is None or not line.is_dirty or line.flushing:
            return
        line.flushing = True
        try:
            dirty = sorted(line.dirty_slots())
            hashmap_ok = (self.config.ftl.mapping == "page"
                          and self.config.ftl.partial_update_hashmap)
            partial = len(dirty) < self.slots_per_line
            if partial and not hashmap_ok:
                # must write the whole superpage: fetch what we don't have
                fetch = [s for s in range(self.slots_per_line)
                         if s not in line.slots or not line.slots[s].full]
                fetch = [s for s in fetch if s not in dirty
                         or not line.slots.get(s, _SlotState()).full]
                if fetch:
                    self.rmw_fetches += len(fetch)
                    fetched = yield from self.ftl.service_line_reads(
                        line_id, fetch)
                    for slot in fetch:
                        state = line.slots.setdefault(slot, _SlotState())
                        self._merge_fetch(state, fetched.get(slot))
                flush_slots = list(range(self.slots_per_line))
                partial = False
            else:
                flush_slots = dirty

            # sub-page dirty slots still need page-level read-modify-write
            rmw = [s for s in flush_slots
                   if s in line.slots and line.slots[s].dirty
                   and not line.slots[s].full]
            if rmw:
                self.rmw_fetches += len(rmw)
                fetched = yield from self.ftl.service_line_reads(line_id, rmw)
                for slot in rmw:
                    self._merge_fetch(line.slots[slot], fetched.get(slot))

            slot_data = {}
            versions = {}
            for slot in flush_slots:
                state = line.slots.setdefault(slot, _SlotState())
                if not state.full:
                    self._merge_fetch(state, None)  # never-written: zeros
                slot_data[slot] = bytes(state.buf) if state.buf is not None \
                    else None
                versions[slot] = state.version
                yield from self.dram.access(
                    self._line_address(line_id, slot), self.page_size)
            yield from self.ftl.service_line_write(line_id, slot_data,
                                                   partial=partial)
            for slot in flush_slots:
                # a write that raced the flush keeps its dirty bit
                state = line.slots[slot]
                if state.version == versions[slot]:
                    self._mark_slot(line, state, False)
            self.lines_flushed += 1
        finally:
            line.flushing = False
            if self._line_freed is not None:
                event, self._line_freed = self._line_freed, None
                event.succeed()

    def _maybe_flush(self):
        """Process: kick background flushing past the high watermark."""
        cache = self.config.cache
        high = int(self.capacity_lines * cache.flush_high_watermark)
        if self.dirty_line_count() > high:
            self._start_flush_daemon()
        return
        yield  # pragma: no cover - makes this a generator

    def _start_flush_daemon(self) -> None:
        if not self._flush_workers_busy:
            self._flush_workers_busy = 1
            self.sim.process(self._flush_daemon())

    def _flush_daemon(self):
        """Continuously stream line flushes at full backend parallelism.

        Keeps up to ~2x the number of parallel units in flight so every
        die sees a steady supply of programs (no batch barriers).
        """
        cache = self.config.cache
        low = int(self.capacity_lines * cache.flush_low_watermark)
        max_inflight = max(8, 2 * self.config.geometry.parallel_units)
        inflight = {"count": 0}
        done_signal = [None]

        def tracked(line_id):
            try:
                yield from self._locked_flush(line_id)
            finally:
                inflight["count"] -= 1
                if done_signal[0] is not None:
                    event, done_signal[0] = done_signal[0], None
                    event.succeed()

        try:
            while (self.dirty_line_count() > low
                   or self._line_freed is not None):
                victims = [line_id for line_id, line in self._lines.items()
                           if line.is_dirty and not line.flushing]
                launched = 0
                for line_id in victims:
                    if inflight["count"] >= max_inflight:
                        break
                    inflight["count"] += 1
                    launched += 1
                    self.sim.process(tracked(line_id))
                if inflight["count"] == 0 and launched == 0:
                    return
                done_signal[0] = self.sim.event()
                yield done_signal[0]
            # drain stragglers so "daemon finished" means flushes landed
            while inflight["count"] > 0:
                done_signal[0] = self.sim.event()
                yield done_signal[0]
        finally:
            self._flush_workers_busy = 0

    def _locked_flush(self, line_id: int):
        yield self._locks.acquire(line_id)
        try:
            yield from self._flush_line(line_id)
        finally:
            self._locks.release(line_id)

    # -- readahead ---------------------------------------------------------------

    def _update_readahead(self, line_id: int) -> None:
        cache = self.config.cache
        if not cache.readahead:
            return
        # Deep queues complete sequential lines out of order, so exact
        # next-line matching breaks streams; accept anything within a
        # small window around the expected position.
        window = 8
        if abs(line_id - self._seq_next_line) <= window:
            self._seq_run += 1
            self._seq_next_line = max(self._seq_next_line, line_id + 1)
        else:
            self._seq_run = 1
            self._seq_next_line = line_id + 1
        if self._seq_run >= cache.readahead_threshold:
            # prefetch from the stream frontier, deep enough to stay
            # ahead of the whole outstanding window
            frontier = self._seq_next_line
            depth = max(cache.readahead_superpages, window)
            targets = [frontier + i for i in range(depth)
                       if (frontier + i) not in self._lines]
            max_line = self.config.logical_pages // self.slots_per_line
            targets = [t for t in targets if t < max_line]
            if targets:
                self.readaheads += len(targets)
                self.sim.process(self._prefetch(targets))

    def _prefetch(self, line_ids: List[int]):
        for line_id in line_ids:
            yield self._locks.acquire(line_id)
            try:
                if line_id in self._lines:
                    continue
                line = yield from self._ensure_line(line_id)
                slots = list(range(self.slots_per_line))
                fetched = yield from self.ftl.service_line_reads(line_id, slots)
                for slot in slots:
                    state = line.slots.setdefault(slot, _SlotState())
                    self._merge_fetch(state, fetched.get(slot))
            finally:
                self._locks.release(line_id)

    # -- pass-through mode (cache disabled) ----------------------------------------

    def _write_through(self, req: LineRequest):
        slot_data = {}
        rmw_slots = [slot for slot, (off, n) in req.page_sectors.items()
                     if n < self.sectors_per_page]
        old = {}
        if rmw_slots:
            self.rmw_fetches += len(rmw_slots)
            old = yield from self.ftl.service_line_reads(
                req.line_id, rmw_slots, track=req.track)
        for slot, (sec_off, sec_n) in req.page_sectors.items():
            if self.data_emulation:
                base = bytearray(old.get(slot) or bytes(self.page_size))
                payload = req.data_slices.get(slot, b"")
                start = sec_off * _SECTOR
                base[start:start + len(payload)] = payload
                slot_data[slot] = bytes(base)
            else:
                slot_data[slot] = None
        partial = (self.config.ftl.mapping == "page"
                   and self.config.ftl.partial_update_hashmap
                   and len(slot_data) < self.slots_per_line)
        yield from self.ftl.service_line_write(req.line_id, slot_data,
                                               partial=partial,
                                               track=req.track)

    def _read_through(self, req: LineRequest):
        slots = list(req.page_sectors)
        fetched = yield from self.ftl.service_line_reads(req.line_id, slots,
                                                         track=req.track)
        self.read_misses += 1
        result = {}
        for slot, (sec_off, sec_n) in req.page_sectors.items():
            if self.data_emulation:
                page = fetched.get(slot) or bytes(self.page_size)
                start = sec_off * _SECTOR
                result[slot] = page[start:start + sec_n * _SECTOR]
            else:
                result[slot] = None
        return result
