"""FTL orchestration: translation, allocation, GC and wear-leveling.

The FTL runs on its own embedded core; every translation touches the
mapping table in internal DRAM.  Writes allocate striped physical pages
across the superpage's parallel units; when a unit runs low on erased
blocks the FTL garbage-collects it inline (holding that unit's lock, so
host writes to the same unit stall — the realistic GC interference the
over-provisioning experiment measures).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.instructions import InstructionMix
from repro.sim import Resource
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.computation.cores import CpuComplex
from repro.ssd.computation.dram import InternalDram
from repro.ssd.config import SSDConfig
from repro.ssd.content import ContentStore
from repro.ssd.firmware.fil import FlashInterfaceLayer
from repro.ssd.firmware.ftl.allocator import PageAllocator
from repro.ssd.firmware.ftl.gc import select_victim, wear_leveling_swap_needed
from repro.ssd.firmware.ftl.mapping import (
    UNMAPPED,
    BlockMapping,
    HybridMapping,
    PageMapping,
    make_mapping,
)
from repro.ssd.storage.array import FlashArray, PageState

_MAP_ENTRY_BYTES = 8


class FlashTranslationLayer:
    def __init__(self, sim, config: SSDConfig, cores: CpuComplex,
                 dram: InternalDram, fil: FlashInterfaceLayer,
                 array: FlashArray, content: ContentStore) -> None:
        self.sim = sim
        self.config = config
        self.cores = cores
        self.dram = dram
        self.fil = fil
        self.array = array
        self.content = content
        self.mapping = make_mapping(config)
        self.allocator = PageAllocator(config, array)
        self._unit_locks = [Resource(sim, 1, name=f"unit{i}")
                            for i in range(config.geometry.parallel_units)]
        # Last holder of each unit lock, for causal blame edges
        # (maintained only while tracing is on; see _lock_unit).
        self._unit_owner: Dict[int, str] = {}
        self._translate_mix = InstructionMix.typical(config.costs.ftl_translate)
        self._gc_page_mix = InstructionMix.typical(config.costs.ftl_gc_per_page)
        self._map_base = 0  # mapping table occupies the bottom of DRAM
        # statistics
        self.host_pages_written = 0
        self.gc_pages_migrated = 0
        self.gc_runs = 0
        self.gc_active = 0  # collections in flight (telemetry gauge)
        self.wl_swaps = 0
        self.trimmed_pages = 0
        self.retired_blocks = 0

    # -- address helpers ---------------------------------------------------

    def line_lpn(self, line_id: int, slot: int) -> int:
        return line_id * self.allocator.slots_per_line + slot

    def _map_address(self, lpn: int) -> int:
        return self._map_base + lpn * _MAP_ENTRY_BYTES

    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 0.0
        return (self.host_pages_written + self.gc_pages_migrated) / \
            self.host_pages_written

    # -- translation (reads) -------------------------------------------------

    def translate(self, line_id: int, slots: Sequence[int], track: int = 0):
        """Process: translate line slots to PPNs.

        Returns ``{slot: ppn}`` with UNMAPPED for never-written pages.
        Charges FTL core time plus one mapping-table DRAM reference per
        page (plus a hashmap probe when the partial-update optimisation
        is active).  ``track`` attributes the ``ftl.translate`` span to
        the originating host request.
        """
        result: Dict[int, int] = {}
        probe_hashmap = (isinstance(self.mapping, PageMapping)
                         and self.config.ftl.partial_update_hashmap)
        tracer = self.sim.tracer
        with (tracer.span("ftl.translate", track, line=line_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            for slot in slots:
                lpn = self.line_lpn(line_id, slot)
                yield from self.cores.execute("ftl", self._translate_mix)
                yield from self.dram.access(self._map_address(lpn),
                                            _MAP_ENTRY_BYTES)
                if probe_hashmap and self.mapping.is_partial(lpn):
                    yield from self.dram.access(
                        self._map_address(lpn) + 4096, _MAP_ENTRY_BYTES)
                result[slot] = self.mapping.lookup(lpn)
        return result

    # -- write path ------------------------------------------------------------

    def service_line_write(self, line_id: int, slot_data: Dict[int, Optional[bytes]],
                           partial: bool = False, track: int = 0):
        """Process: persist the given slots of a line to flash.

        ``slot_data`` maps slot index to full-page payload (or None when
        timing-only).  ``partial`` marks a sub-superpage flush surviving
        thanks to the hashmap optimisation; it charges the extra hashmap
        maintenance cost.  ``track`` attributes the ``ftl.write`` span
        (and the flash programs beneath it) to a host request; cache
        flushes leave it 0, the background lane.
        """
        tracer = self.sim.tracer
        with (tracer.span("ftl.write", track, line=line_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if isinstance(self.mapping, PageMapping):
                yield from self._write_page_mapped(line_id, slot_data, partial,
                                                   track)
            elif isinstance(self.mapping, BlockMapping):
                yield from self._write_block_mapped(line_id, slot_data, track)
            else:
                yield from self._write_hybrid(line_id, slot_data, track)

    def _write_page_mapped(self, line_id: int,
                           slot_data: Dict[int, Optional[bytes]],
                           partial: bool, track: int = 0):
        units = self.allocator.line_units(line_id)
        # Group slots by die and allocate each die's planes atomically
        # (both unit locks held): sibling planes stay in page-offset
        # lockstep, so the FIL can fuse them into one multi-plane program
        # whose fast/slow ISPP timing matches across planes.
        die_of = self.array.mapper.die_of_unit
        groups: Dict[int, List[int]] = {}
        for slot in sorted(slot_data):
            groups.setdefault(die_of(units[slot]), []).append(slot)

        new_ppns: List[int] = []
        for _die, group in sorted(groups.items()):
            for slot in group:
                yield from self.cores.execute("ftl", self._translate_mix)
                yield from self._gc_if_needed(units[slot], track)
            group_units = sorted({units[slot] for slot in group})
            for unit in group_units:
                yield from self._lock_unit(unit, track)
            try:
                allocated = {slot: self.allocator.allocate(units[slot],
                                                           self.sim.now)
                             for slot in group}
            finally:
                for unit in reversed(group_units):
                    self._unit_locks[unit].release()
            for slot in group:
                lpn = self.line_lpn(line_id, slot)
                ppn = allocated[slot]
                old = self.mapping.bind(lpn, ppn)
                if old is not None:
                    self.array.invalidate_ppn(old)
                if partial:
                    self.mapping.mark_partial(lpn, ppn)
                    # hashmap insert: one extra metadata reference
                    yield from self.dram.access(
                        self._map_address(lpn) + 4096, _MAP_ENTRY_BYTES,
                        write=True)
                else:
                    self.mapping.partial_hashmap.pop(lpn, None)
                yield from self.dram.access(
                    self._map_address(lpn), _MAP_ENTRY_BYTES, write=True)
                self.content.write(ppn, slot_data[slot])
                new_ppns.append(ppn)
                self.host_pages_written += 1
        yield from self.fil.program_group(new_ppns, track=track)

    # -- reads (data) ------------------------------------------------------------

    def service_line_reads(self, line_id: int, slots: Sequence[int],
                           track: int = 0):
        """Process: read the given slots from flash.

        Returns ``{slot: bytes|None}``; unmapped slots read as None
        (zero-fill semantics are applied by the ICL).
        """
        ppns = yield from self.translate(line_id, slots, track=track)
        mapped = [(slot, ppn) for slot, ppn in ppns.items() if ppn != UNMAPPED]
        payload = (0 if self.config.fil.transfer_whole_page
                   else self.config.geometry.page_size)
        yield from self.fil.read_group([ppn for _slot, ppn in mapped], payload,
                                       track=track)
        result: Dict[int, Optional[bytes]] = {slot: None for slot in slots}
        for slot, ppn in mapped:
            result[slot] = self.content.read(ppn)
        return result

    # -- trim / deallocate -----------------------------------------------------

    def trim(self, line_id: int, slots: Sequence[int], track: int = 0):
        """Process: deallocate logical pages (TRIM / NVMe DSM).

        Invalidates the backing physical pages so GC can reclaim them
        without migration; subsequent reads return unmapped (zeroes).
        """
        del track  # TRIM charges no flash work worth a span of its own
        if not isinstance(self.mapping, PageMapping):
            raise NotImplementedError("trim requires page mapping")
        for slot in slots:
            lpn = self.line_lpn(line_id, slot)
            yield from self.cores.execute("ftl", self._translate_mix)
            old = self.mapping.unbind(lpn)
            if old is not None:
                self.array.invalidate_ppn(old)
                self.trimmed_pages += 1
            yield from self.dram.access(
                self._map_address(lpn), _MAP_ENTRY_BYTES, write=True)

    # -- unit locking (with causal blame) ----------------------------------------

    def _lock_unit(self, unit: int, track: int = 0,
                   ctx: Optional[str] = None):
        """Process: acquire a unit lock, recording contention for blame.

        When tracing is on and the lock is already held, the wait is
        captured as an ``ftl.unit_wait`` span carrying ``holder=`` — the
        label of the current holder (``gc:<run>`` when a collection has
        the unit, else the owning request/namespace) — which the causal
        layer folds into the ``gc_stall`` component.  When tracing is
        off this is exactly the bare ``acquire()`` of the pre-forensics
        code.
        """
        lock = self._unit_locks[unit]
        tracer = self.sim.tracer
        if not tracer.enabled:
            yield lock.acquire()  # simlint: disable=SIM106 -- acquire-only helper; every caller releases in its own try/finally
            return
        if lock.in_use >= lock.capacity:
            span = tracer.begin("ftl.unit_wait", track, unit=unit,
                                holder=self._unit_owner.get(unit, "?"))
            yield lock.acquire()  # simlint: disable=SIM106 -- acquire-only helper; every caller releases in its own try/finally
            tracer.end(span)
        else:
            yield lock.acquire()  # simlint: disable=SIM106 -- acquire-only helper; every caller releases in its own try/finally
        self._unit_owner[unit] = ctx if ctx is not None \
            else tracer.owner_label(track)

    # -- garbage collection --------------------------------------------------------

    def _gc_if_needed(self, unit: int, track: int = 0):
        """Process: collect ``unit`` until it has breathing room again.

        On a host track the whole inline-GC episode is wrapped in one
        ``ftl.gc_stall`` span: the collection itself traces on the
        background lane (track 0), so without this span the host
        request's causal record would show an unexplained gap exactly
        where GC blocked it.  ``holder=gc:<run>`` names the collection
        about to run.
        """
        if not self.allocator.needs_gc(unit):
            return
        tracer = self.sim.tracer
        span = None
        if tracer.enabled and track:
            span = tracer.begin("ftl.gc_stall", track, unit=unit,
                                holder=f"gc:{self.gc_runs + 1}")
        while self.allocator.needs_gc(unit):
            progressed = yield from self._collect_unit(unit)
            if not progressed:
                break
        if span is not None:
            tracer.end(span)

    def _collect_unit(self, unit: int):
        """Process: one GC pass on a unit. Returns True if a block was freed."""
        yield from self._lock_unit(unit, 0, ctx=f"gc:{self.gc_runs + 1}"
                                   if self.sim.tracer.enabled else None)
        try:
            candidates = self.allocator.gc_candidates(unit)
            victim = select_victim(self.config, self.array, unit,
                                   candidates, self.sim.now)
            if victim is None:
                full = [b for b in self.allocator.filled_blocks(unit)]
                swap = wear_leveling_swap_needed(self.config, self.array,
                                                 unit, full)
                if swap is None:
                    return False
                victim = swap
                self.wl_swaps += 1
            self.gc_runs += 1
            self.gc_active += 1
            tracer = self.sim.tracer
            ctx = f"gc:{self.gc_runs}" if tracer.enabled else None
            try:
                # GC always traces on the background lane (track 0): the host
                # write that tripped it stalls on the unit lock, visible as a
                # gap in its own spans overlapping this one
                with tracer.span("ftl.gc", 0, unit=unit, block=victim,
                                 run=self.gc_runs):
                    yield from self._migrate_and_erase(unit, victim, ctx=ctx)
            finally:
                self.gc_active -= 1
            return True
        finally:
            self._unit_locks[unit].release()

    def _migrate_and_erase(self, unit: int, victim: int,
                           ctx: Optional[str] = None):
        block = self.array.block(unit, victim)
        geom = self.config.geometry
        for page in list(block.valid_pages()):
            old_ppn = self.array.mapper.ppn_from_unit(unit, victim, page)
            yield from self.cores.execute("ftl", self._gc_page_mix)
            yield from self.fil.read(old_ppn, geom.page_size, ctx=ctx)
            if not self.allocator.can_allocate(unit):
                raise RuntimeError(
                    f"GC on unit {unit} cannot migrate: no free block "
                    "(over-provisioning too small for workload)")
            # Only this unit is locked, so during the timed read a host
            # write/trim on another unit may have remapped or discarded
            # this LPN (its bind/unbind invalidated old_ppn).  Re-check
            # and resolve the owner atomically with the rebind — binding
            # a stale copy would orphan the host's newer page.
            if self.array.page_state(old_ppn) is not PageState.VALID:
                continue
            lpn = self.mapping.reverse(old_ppn)
            new_ppn = self.allocator.allocate(unit, self.sim.now)
            self.content.move(old_ppn, new_ppn)
            if lpn != UNMAPPED:
                self.mapping.bind(lpn, new_ppn)
            else:
                # valid page with no logical owner: drop the fresh copy
                self.array.invalidate_ppn(new_ppn)
            self.array.invalidate_ppn(old_ppn)
            yield from self.fil.program(new_ppn, ctx=ctx)
            yield from self.dram.access(
                self._map_address(max(lpn, 0)), _MAP_ENTRY_BYTES, write=True)
            self.gc_pages_migrated += 1
        ok = yield from self.fil.erase(unit, victim, ctx=ctx)
        if not ok:
            # permanent erase failure: retire the block (its pages stay
            # invalid; capacity shrinks by one block)
            self.allocator.retire_block(unit, victim)
            self.retired_blocks += 1
            return
        self.content.erase_block(self.array.mapper, unit, victim,
                                 geom.pages_per_block)
        self.array.erase_block(unit, victim)
        self.allocator.reclaim(unit, victim)

    # -- block / hybrid mapping write paths -------------------------------------

    def _unit_for_lbn(self, lbn: int) -> int:
        return lbn % self.config.geometry.parallel_units

    def _write_block_mapped(self, line_id: int,
                            slot_data: Dict[int, Optional[bytes]],
                            track: int = 0):
        """Block-level mapping: every overwrite migrates the whole block."""
        mapping: BlockMapping = self.mapping
        ppb = mapping.pages_per_block
        by_lbn: Dict[int, Dict[int, Optional[bytes]]] = {}
        for slot in sorted(slot_data):
            lpn = self.line_lpn(line_id, slot)
            by_lbn.setdefault(lpn // ppb, {})[lpn % ppb] = slot_data[slot]

        for lbn, updates in by_lbn.items():
            unit = self._unit_for_lbn(lbn)
            yield from self.cores.execute("ftl", self._translate_mix)
            yield from self._gc_if_needed(unit, track)
            old_base = mapping.block_base(lbn)
            # gather surviving old data
            old_data: Dict[int, Optional[bytes]] = {}
            if old_base != UNMAPPED:
                for off in range(ppb):
                    old_ppn = old_base + off
                    if off not in updates and \
                            self.array.page_state(old_ppn).name == "VALID":
                        yield from self.fil.read(old_ppn,
                                                 self.config.geometry.page_size)
                        old_data[off] = self.content.read(old_ppn)
            # allocate a whole fresh block and program every page in order
            yield from self._lock_unit(unit, track)
            try:
                new_ppns = [self.allocator.allocate(unit, self.sim.now)
                            for _ in range(ppb)]
            finally:
                self._unit_locks[unit].release()
            for off in range(ppb):
                data = updates.get(off, old_data.get(off))
                self.content.write(new_ppns[off], data)
                if off not in updates and off not in old_data:
                    # padding page: programmed but holds no logical data
                    self.array.invalidate_ppn(new_ppns[off])
            if old_base != UNMAPPED:
                for off in range(ppb):
                    old_ppn = old_base + off
                    if self.array.page_state(old_ppn).name == "VALID":
                        self.array.invalidate_ppn(old_ppn)
            mapping.bind_block(lbn, new_ppns[0])
            self.host_pages_written += len(updates)
            self.gc_pages_migrated += len(old_data)
            yield from self.fil.program_group(new_ppns, track=track)

    def _write_hybrid(self, line_id: int,
                      slot_data: Dict[int, Optional[bytes]],
                      track: int = 0):
        """Hybrid mapping: updates land in page-mapped log space."""
        mapping: HybridMapping = self.mapping
        for slot in sorted(slot_data):
            lpn = self.line_lpn(line_id, slot)
            unit = self._unit_for_lbn(lpn // mapping.block_map.pages_per_block)
            yield from self.cores.execute("ftl", self._translate_mix)
            if mapping.log_full():
                yield from self._merge_log(track)
            yield from self._gc_if_needed(unit, track)
            yield from self._lock_unit(unit, track)
            try:
                ppn = self.allocator.allocate(unit, self.sim.now)
            finally:
                self._unit_locks[unit].release()
            old = mapping.bind_log(lpn, ppn)
            if old is not None:
                self.array.invalidate_ppn(old)
            self.content.write(ppn, slot_data[slot])
            self.host_pages_written += 1
            yield from self.fil.program(ppn, track=track)

    def _merge_log(self, track: int = 0):
        """Full merge: rewrite every logged page into fresh log space.

        A simplified switch-merge model: drained entries stay page-mapped
        (re-bound), but the merge pays the migration traffic a real
        hybrid FTL would.  ``track`` attributes GC stalls the merge trips
        to the host request paying for it.
        """
        mapping: HybridMapping = self.mapping
        drained = mapping.drain_log()
        for lpn, ppn in drained.items():
            unit = self._unit_for_lbn(lpn // mapping.block_map.pages_per_block)
            yield from self.cores.execute("ftl", self._gc_page_mix)
            yield from self.fil.read(ppn, self.config.geometry.page_size)
            yield from self._gc_if_needed(unit, track)
            yield from self._lock_unit(unit, track)
            try:
                new_ppn = self.allocator.allocate(unit, self.sim.now)
            finally:
                self._unit_locks[unit].release()
            self.content.move(ppn, new_ppn)
            self.array.invalidate_ppn(ppn)
            mapping.bind_log(lpn, new_ppn)
            self.gc_pages_migrated += 1
            yield from self.fil.program(new_ppn)
