"""Address translation tables: page-level, block-level and hybrid mapping.

All mappings share one interface (``lookup``, ``bind``, ``unbind``) over
logical page numbers; the FTL composes them with allocation and GC.  The
reverse map supports GC migration and integrity checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.ssd.config import SSDConfig

UNMAPPED = -1


class PageMapping:
    """Pure page-level map: any LPN can live on any physical page.

    Implements the paper's default (super-page-basis page mapping): full
    superpage writes stripe across units; the *partial-update hashmap*
    (Section IV-C) is modeled as an auxiliary map the FTL consults when a
    page was selectively remapped outside its home superpage stripe.
    """

    kind = "page"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.l2p = np.full(config.logical_pages, UNMAPPED, dtype=np.int64)
        self.p2l = np.full(config.geometry.total_physical_pages, UNMAPPED,
                           dtype=np.int64)
        # LPNs remapped individually by the partial-update optimisation.
        self.partial_hashmap: Dict[int, int] = {}

    @property
    def mapped_count(self) -> int:
        return int(np.count_nonzero(self.l2p != UNMAPPED))

    def lookup(self, lpn: int) -> int:
        return int(self.l2p[lpn])

    def reverse(self, ppn: int) -> int:
        return int(self.p2l[ppn])

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map ``lpn`` to ``ppn``; returns the displaced old PPN (or None)."""
        old = int(self.l2p[lpn])
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        if old != UNMAPPED:
            self.p2l[old] = UNMAPPED
            return old
        return None

    def bind_run(self, lpns: np.ndarray, first_ppn: int) -> None:
        """Map unmapped ``lpns[i]`` to free ``first_ppn + i``, all at once."""
        self.l2p[lpns] = np.arange(first_ppn, first_ppn + len(lpns))
        self.p2l[first_ppn:first_ppn + len(lpns)] = lpns

    def unbind(self, lpn: int) -> Optional[int]:
        old = int(self.l2p[lpn])
        if old == UNMAPPED:
            return None
        self.l2p[lpn] = UNMAPPED
        self.p2l[old] = UNMAPPED
        self.partial_hashmap.pop(lpn, None)
        return old

    def mark_partial(self, lpn: int, ppn: int) -> None:
        self.partial_hashmap[lpn] = ppn

    def is_partial(self, lpn: int) -> bool:
        return lpn in self.partial_hashmap

    def mapped_lpns(self) -> Iterator[int]:
        return iter(np.nonzero(self.l2p != UNMAPPED)[0])


class BlockMapping:
    """Block-level map: a logical block maps to one physical block.

    The page offset within the block is fixed, so an overwrite of any
    page forces migration of the whole logical block — the classic
    small-write penalty this scheme trades for a tiny mapping table.
    The FTL treats a migration requirement as the return value of
    :meth:`plan_write`.
    """

    kind = "block"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        pages = config.geometry.pages_per_block
        self.pages_per_block = pages
        n_lblocks = -(-config.logical_pages // pages)
        self.l2p_block = np.full(n_lblocks, UNMAPPED, dtype=np.int64)
        # ppn-level reverse map kept for integrity checks
        self.p2l = np.full(config.geometry.total_physical_pages, UNMAPPED,
                           dtype=np.int64)

    def lookup(self, lpn: int) -> int:
        lbn, off = divmod(lpn, self.pages_per_block)
        base = int(self.l2p_block[lbn])
        if base == UNMAPPED:
            return UNMAPPED
        return base + off

    def block_base(self, lbn: int) -> int:
        return int(self.l2p_block[lbn])

    def bind_block(self, lbn: int, first_ppn: int) -> Optional[int]:
        old = int(self.l2p_block[lbn])
        self.l2p_block[lbn] = first_ppn
        for off in range(self.pages_per_block):
            self.p2l[first_ppn + off] = lbn * self.pages_per_block + off
        return old if old != UNMAPPED else None

    def reverse(self, ppn: int) -> int:
        return int(self.p2l[ppn])


class HybridMapping:
    """Block map plus page-mapped log blocks (BAST-style hybrid).

    Sequential data lives in block-mapped *data blocks*; overwrites land
    in a bounded set of page-mapped *log* entries.  When the log fills,
    the FTL must merge (modeled as migrations).  Captures the behaviour
    class without modeling a specific commercial variant.
    """

    kind = "hybrid"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.block_map = BlockMapping(config)
        self.log_map: Dict[int, int] = {}     # lpn -> ppn (newest wins)
        self._log_p2l: Dict[int, int] = {}    # ppn -> lpn for GC migration
        self.log_capacity = (config.ftl.hybrid_log_blocks
                             * config.geometry.pages_per_block)

    def lookup(self, lpn: int) -> int:
        if lpn in self.log_map:
            return self.log_map[lpn]
        return self.block_map.lookup(lpn)

    def reverse(self, ppn: int) -> int:
        if ppn in self._log_p2l:
            return self._log_p2l[ppn]
        return self.block_map.reverse(ppn)

    def log_full(self) -> bool:
        return len(self.log_map) >= self.log_capacity

    def bind_log(self, lpn: int, ppn: int) -> Optional[int]:
        old = self.log_map.get(lpn)
        self.log_map[lpn] = ppn
        if old is not None:
            self._log_p2l.pop(old, None)
        self._log_p2l[ppn] = lpn
        return old

    # GC migration entry point (same signature as PageMapping.bind)
    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        return self.bind_log(lpn, ppn)

    def drain_log(self) -> Dict[int, int]:
        """Take the whole log for merging; returns the drained entries."""
        drained, self.log_map = self.log_map, {}
        self._log_p2l.clear()
        return drained


def make_mapping(config: SSDConfig):
    """Factory keyed on ``config.ftl.mapping``."""
    table = {"page": PageMapping, "block": BlockMapping, "hybrid": HybridMapping}
    try:
        return table[config.ftl.mapping](config)
    except KeyError:
        raise ValueError(f"unknown mapping {config.ftl.mapping!r}") from None
