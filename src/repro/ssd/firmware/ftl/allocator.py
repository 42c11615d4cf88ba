"""Physical page allocation: write pointers, free pools, superpage striping.

Each parallel unit (die-plane) owns an *active block* with an in-order
write pointer and a pool of erased blocks.  Superpages stripe one page
slot per unit across a configurable channel/way span, so a full-line
flush programs all spanned units in parallel — the multi-channel,
multi-way parallelism of Figure 2.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.ssd.config import SSDConfig
from repro.ssd.storage.array import FlashArray


class OutOfBlocksError(RuntimeError):
    """A unit has no erased block to allocate from (GC must run first)."""


class _UnitState:
    __slots__ = ("free", "active", "filled", "retired")

    def __init__(self, blocks: int) -> None:
        self.free: Deque[int] = deque(range(blocks))
        self.active: Optional[int] = None
        # insertion-ordered set of fully-programmed blocks: O(1) add and
        # remove, FIFO iteration (same order the old list gave)
        self.filled: Dict[int, None] = {}
        self.retired: List[int] = []


class PageAllocator:
    """Write-pointer allocation over all parallel units."""

    def __init__(self, config: SSDConfig, array: FlashArray) -> None:
        self.config = config
        self.array = array
        geom = config.geometry
        self._units = [_UnitState(geom.blocks_per_plane)
                       for _ in range(geom.parallel_units)]
        self._span_channels = config.superpage_channels or geom.channels
        self._span_ways = config.superpage_ways
        self._slots = self._span_channels * self._span_ways * geom.planes_per_die
        if geom.channels % self._span_channels:
            raise ValueError("superpage channel span must divide channel count")
        if geom.ways_per_channel % self._span_ways:
            raise ValueError("superpage way span must divide way count")
        self._n_cgroups = geom.channels // self._span_channels
        self._n_wgroups = geom.ways_per_channel // self._span_ways
        self._banded = config.fil.placement == "banded"
        self._band_lines = max(1, config.logical_capacity // config.superpage_size)
        self._group_units = [self._slot_units(group) for group
                             in range(self._n_cgroups * self._n_wgroups)]

    # -- superpage geometry -------------------------------------------------

    @property
    def slots_per_line(self) -> int:
        return self._slots

    def line_group(self, line_id: int) -> int:
        """The (channel group, way group) a logical line stripes over.

        With ``fil.placement == "rotate"`` (default), consecutive lines
        rotate across way groups (and channel groups if the span is
        partial) so streams pipeline over all resources.  With
        ``"banded"``, the logical line space is cut into one contiguous
        band per group instead: a namespace confined to one band touches
        only its own dies, and since GC works per parallel unit, its
        garbage collection cannot disturb other bands (die-level tenant
        isolation; see docs/MULTITENANT.md).  Groups are numbered
        channel-major, so adjacent bands share a channel and a tenant
        holding a contiguous run of bands owns whole channels (bus
        isolation), not just whole dies.
        """
        n_cgroups, n_wgroups = self._n_cgroups, self._n_wgroups
        if self._banded:
            n_groups = n_cgroups * n_wgroups
            return min(n_groups - 1, line_id * n_groups // self._band_lines)
        return line_id % n_cgroups * n_wgroups + line_id // n_cgroups % n_wgroups

    def group_lines(self, n_lines: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Lines ``0 .. n_lines - 1`` by :meth:`line_group`, as
        ``(group, ascending line ids)`` for each group that has any."""
        groups = np.fromiter(map(self.line_group, range(n_lines)),
                             dtype=np.int64, count=n_lines)
        for group in np.flatnonzero(np.bincount(groups)).tolist():
            yield group, np.flatnonzero(groups == group)

    def group_units(self, group: int) -> Tuple[int, ...]:
        """Parallel units backing each page slot of a group's lines."""
        return self._group_units[group]

    def _slot_units(self, group: int) -> Tuple[int, ...]:
        geom = self.config.geometry
        planes = geom.planes_per_die
        ways = geom.ways_per_channel
        cgroup, wgroup = divmod(group, self._n_wgroups)
        order = self.config.fil.parallelism_order
        units: List[int] = []
        for slot in range(self._slots):
            if order == "way_first":
                w_in = slot // (self._span_channels * planes)
                rest = slot % (self._span_channels * planes)
                ch_in = rest // planes
            else:  # channel_first
                ch_in = slot // (self._span_ways * planes)
                rest = slot % (self._span_ways * planes)
                w_in = rest // planes
            plane = rest % planes
            channel = cgroup * self._span_channels + ch_in
            way = wgroup * self._span_ways + w_in
            units.append((channel * ways + way) * planes + plane)
        return tuple(units)

    # -- allocation -----------------------------------------------------------

    def free_blocks(self, unit: int) -> int:
        state = self._units[unit]
        return len(state.free) + (1 if state.active is None else 0)

    def needs_gc(self, unit: int) -> bool:
        return len(self._units[unit].free) <= self.config.ftl.gc_threshold_free_blocks

    def can_allocate(self, unit: int) -> bool:
        state = self._units[unit]
        if state.active is not None:
            return True
        return bool(state.free)

    def allocate(self, unit: int, now: int) -> int:
        """Claim the next in-order page of the unit's active block.

        Updates the array state immediately (the physical write pointer
        advanced); the caller charges flash timing separately.
        """
        geom = self.config.geometry
        state = self._units[unit]
        if state.active is None:
            if not state.free:
                raise OutOfBlocksError(f"unit {unit} has no free blocks")
            state.active = state.free.popleft()
        block = self.array.block(unit, state.active)
        page = block.next_page
        ppn = self.array.mapper.ppn_from_unit(unit, state.active, page)
        self.array.program_ppn(ppn, now)
        if block.is_fully_programmed(geom.pages_per_block):
            state.filled[state.active] = None
            state.active = None
        return ppn

    def fill_unit(self, unit: int, pages: int, now: int) -> None:
        """Claim ``pages`` pages of a unit with no active block at once:
        the pools and blocks end as ``pages`` :meth:`allocate` calls leave
        them, with whole blocks filled and a partial last one active."""
        ppb = self.config.geometry.pages_per_block
        state = self._units[unit]
        if state.active is not None:
            raise RuntimeError(f"unit {unit} has an active block")
        full, rest = divmod(pages, ppb)
        if full + (rest > 0) > len(state.free):
            raise OutOfBlocksError(f"unit {unit} has no free blocks")
        for _ in range(full):
            block = state.free.popleft()
            self.array.block(unit, block).fill(ppb, now)
            state.filled[block] = None
        if rest:
            state.active = state.free.popleft()
            self.array.block(unit, state.active).fill(rest, now)
        self.array.total_programs += pages

    # -- GC support -------------------------------------------------------------

    def filled_blocks(self, unit: int) -> List[int]:
        return list(self._units[unit].filled)

    def reclaim(self, unit: int, block: int) -> None:
        """Return an erased block to the unit's free pool."""
        state = self._units[unit]
        state.filled.pop(block, None)
        state.free.append(block)

    def retire_block(self, unit: int, block: int) -> None:
        """Bad-block management: take a failed block out of service."""
        state = self._units[unit]
        state.filled.pop(block, None)
        if block in state.free:
            state.free.remove(block)
        if state.active == block:
            state.active = None
        state.retired.append(block)

    def retired_blocks(self, unit: int) -> List[int]:
        return list(self._units[unit].retired)

    def total_retired(self) -> int:
        return sum(len(state.retired) for state in self._units)

    def gc_candidates(self, unit: int) -> List[int]:
        """Blocks eligible as GC victims: fully programmed, not active."""
        pages = self.config.geometry.pages_per_block
        return [b for b in self._units[unit].filled
                if self.array.block(unit, b).valid_count < pages]
