"""Unit tests for FTL components: allocator, mappings, GC policies."""

import pytest

from repro.sim import Simulator
from repro.ssd.config import FTLConfig
from repro.ssd.device import SSD
from repro.ssd.firmware.ftl.allocator import OutOfBlocksError, PageAllocator
from repro.ssd.firmware.ftl.gc import select_victim
from repro.ssd.firmware.ftl.mapping import (
    UNMAPPED,
    BlockMapping,
    HybridMapping,
    PageMapping,
    make_mapping,
)
from repro.ssd.storage.array import FlashArray

from tests.conftest import tiny_ssd_config


@pytest.fixture
def config():
    return tiny_ssd_config()


@pytest.fixture
def array(config):
    return FlashArray(config.geometry)


class TestPageAllocator:
    def test_allocates_in_page_order(self, config, array):
        allocator = PageAllocator(config, array)
        first = allocator.allocate(0, now=0)
        second = allocator.allocate(0, now=0)
        assert second == first + 1

    def test_line_units_cover_span(self, config, array):
        allocator = PageAllocator(config, array)
        units = allocator.group_units(allocator.line_group(0))
        assert len(units) == config.superpage_pages
        assert len(set(units)) == len(units)    # all distinct

    def test_consecutive_lines_rotate_ways(self, config, array):
        allocator = PageAllocator(config, array)
        # tiny config has 1 way; rotation degenerates but stays valid
        for line in range(4):
            units = allocator.group_units(allocator.line_group(line))
            assert all(0 <= u < config.geometry.parallel_units
                       for u in units)

    def test_exhaustion_raises(self, config, array):
        allocator = PageAllocator(config, array)
        per_unit = config.geometry.pages_per_plane
        for _ in range(per_unit):
            allocator.allocate(0, now=0)
        with pytest.raises(OutOfBlocksError):
            allocator.allocate(0, now=0)

    def test_reclaim_returns_block_to_pool(self, config, array):
        allocator = PageAllocator(config, array)
        ppb = config.geometry.pages_per_block
        ppns = [allocator.allocate(0, now=0) for _ in range(ppb)]
        for ppn in ppns:
            array.invalidate_ppn(ppn)
        before = allocator.free_blocks(0)
        array.erase_block(0, 0)
        allocator.reclaim(0, 0)
        assert allocator.free_blocks(0) == before + 1

    def test_gc_candidates_excludes_full_valid(self, config, array):
        allocator = PageAllocator(config, array)
        ppb = config.geometry.pages_per_block
        ppns = [allocator.allocate(0, now=0) for _ in range(ppb)]
        assert allocator.gc_candidates(0) == []     # block fully valid
        array.invalidate_ppn(ppns[0])
        assert allocator.gc_candidates(0) == [0]

    def test_bad_span_rejected(self, config, array):
        bad = config.with_overrides(superpage_channels=0, superpage_ways=3)
        with pytest.raises(ValueError):
            PageAllocator(bad, FlashArray(bad.geometry))


class TestMappings:
    def test_factory_dispatch(self, config):
        assert isinstance(make_mapping(config), PageMapping)
        assert isinstance(
            make_mapping(config.with_overrides(ftl=FTLConfig(mapping="block"))),
            BlockMapping)
        assert isinstance(
            make_mapping(config.with_overrides(ftl=FTLConfig(mapping="hybrid"))),
            HybridMapping)

    def test_page_mapping_bind_and_displace(self, config):
        mapping = PageMapping(config)
        assert mapping.bind(5, 100) is None
        assert mapping.lookup(5) == 100
        assert mapping.reverse(100) == 5
        assert mapping.bind(5, 200) == 100       # displaced old ppn
        assert mapping.reverse(100) == UNMAPPED

    def test_page_mapping_unbind(self, config):
        mapping = PageMapping(config)
        mapping.bind(3, 50)
        assert mapping.unbind(3) == 50
        assert mapping.lookup(3) == UNMAPPED
        assert mapping.unbind(3) is None

    def test_partial_hashmap_tracking(self, config):
        mapping = PageMapping(config)
        mapping.bind(7, 70)
        mapping.mark_partial(7, 70)
        assert mapping.is_partial(7)
        mapping.unbind(7)
        assert not mapping.is_partial(7)

    def test_block_mapping_fixed_offsets(self, config):
        mapping = BlockMapping(config)
        ppb = mapping.pages_per_block
        mapping.bind_block(0, first_ppn=3 * ppb)
        for off in range(ppb):
            assert mapping.lookup(off) == 3 * ppb + off
        assert mapping.lookup(ppb) == UNMAPPED   # other block unmapped

    def test_hybrid_log_overrides_block(self, config):
        mapping = HybridMapping(config)
        ppb = mapping.block_map.pages_per_block
        mapping.block_map.bind_block(0, first_ppn=0)
        mapping.bind_log(2, 500)
        assert mapping.lookup(2) == 500          # log wins
        assert mapping.lookup(1) == 1            # block mapping
        assert mapping.reverse(500) == 2

    def test_hybrid_log_capacity(self, config):
        small = config.with_overrides(
            ftl=FTLConfig(mapping="hybrid", hybrid_log_blocks=1))
        mapping = HybridMapping(small)
        assert not mapping.log_full()
        for lpn in range(mapping.log_capacity):
            mapping.bind_log(lpn, 1000 + lpn)
        assert mapping.log_full()
        drained = mapping.drain_log()
        assert len(drained) == mapping.log_capacity
        assert not mapping.log_full()


class TestVictimSelection:
    def _prepare(self, config, array, valid_counts):
        """Fill blocks of unit 0 with the given valid page counts."""
        ppb = config.geometry.pages_per_block
        for block_idx, valid in enumerate(valid_counts):
            block = array.block(0, block_idx)
            for page in range(ppb):
                block.program(page, now=block_idx)
            for page in range(ppb - valid):
                block.invalidate(page)

    def test_greedy_picks_fewest_valid(self, config, array):
        self._prepare(config, array, [10, 2, 7])
        victim = select_victim(config, array, 0, [0, 1, 2], now=100)
        assert victim == 1

    def test_costbenefit_prefers_old_blocks(self, array):
        config = tiny_ssd_config(ftl=FTLConfig(gc_policy="costbenefit",
                                               wear_leveling=False))
        ppb = config.geometry.pages_per_block
        # same utilization, different ages (last_write_time = block index)
        self._prepare(config, array, [8, 8])
        victim = select_victim(config, array, 0, [0, 1], now=1000)
        assert victim == 0      # older block wins

    def test_no_candidates_returns_none(self, config, array):
        assert select_victim(config, array, 0, [], now=0) is None

    def test_wear_aware_tiebreak(self, config, array):
        self._prepare(config, array, [5, 5])
        array.block(0, 0).erase_count = 10
        array.block(0, 1).erase_count = 1
        victim = select_victim(config, array, 0, [0, 1], now=0)
        assert victim == 1       # equal score: least-worn wins

    def test_unknown_policy_rejected(self, array):
        config = tiny_ssd_config()
        object.__setattr__(config.ftl, "gc_policy", "lru")
        with pytest.raises(ValueError):
            select_victim(config, array, 0, [0], now=0)


class TestAlternativeMappingModes:
    def _device(self, mapping):
        sim = Simulator()
        config = tiny_ssd_config(ftl=FTLConfig(
            mapping=mapping, overprovision=0.25, gc_threshold_free_blocks=1))
        return sim, SSD(sim, config, data_emulation=True)

    @pytest.mark.parametrize("mapping", ["block", "hybrid"])
    def test_write_read_roundtrip(self, mapping):
        sim, ssd = self._device(mapping)
        data = bytes(range(256)) * 8   # 4 sectors

        def scenario():
            yield from ssd.write(0, 4, data)
            yield from ssd.flush()
            got = yield from ssd.read(0, 4)
            return got

        assert sim.run_process(scenario()) == data

    def test_block_mapping_overwrite_migrates(self):
        sim, ssd = self._device("block")

        def scenario():
            yield from ssd.write(0, 4)
            yield from ssd.flush()
            yield from ssd.write(0, 4)
            yield from ssd.flush()

        sim.run_process(scenario())
        # second write forced a whole-block rewrite
        assert ssd.ftl.gc_pages_migrated >= 0
        assert ssd.backend.programs_issued >= \
            2 * ssd.config.geometry.pages_per_block

    def test_hybrid_merge_on_log_pressure(self):
        sim = Simulator()
        config = tiny_ssd_config(ftl=FTLConfig(
            mapping="hybrid", hybrid_log_blocks=1, overprovision=0.25,
            gc_threshold_free_blocks=1))
        ssd = SSD(sim, config)
        spp = config.geometry.page_size // 512

        def scenario():
            # distinct pages: the log fills with live entries and merges
            for i in range(3 * config.geometry.pages_per_block):
                yield from ssd.write(i * spp, spp)
                yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.ftl.gc_pages_migrated > 0   # merge traffic happened
