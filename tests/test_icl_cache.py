"""ICL cache behaviour: associativity, replacement, RMW, pass-through."""

import pytest

from repro.sim import Simulator
from repro.ssd.config import CacheConfig, FTLConfig
from repro.ssd.device import SSD

from tests.conftest import tiny_ssd_config


def build(sim, **overrides):
    return SSD(sim, tiny_ssd_config(**overrides), data_emulation=False)


def line_sectors(ssd):
    return ssd.config.superpage_size // 512


class TestAssociativity:
    def test_direct_mapped_conflicts_evict(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(associativity="direct", n_sets=4,
                                           readahead=False))
        sectors = line_sectors(ssd)

        def scenario():
            # lines 0 and 4 map to the same set in a 4-set direct cache
            yield from ssd.read(0, sectors)
            yield from ssd.read(4 * sectors, sectors)
            yield from ssd.read(0, sectors)   # evicted: miss again

        sim.run_process(scenario())
        assert ssd.icl.read_misses == 3
        assert ssd.icl.read_hits == 0

    def test_set_associative_keeps_both_ways(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(associativity="set", n_sets=4,
                                           ways=2, readahead=False))
        sectors = line_sectors(ssd)

        def scenario():
            yield from ssd.read(0, sectors)
            yield from ssd.read(4 * sectors, sectors)   # same set, way 2
            yield from ssd.read(0, sectors)             # still cached

        sim.run_process(scenario())
        assert ssd.icl.read_hits == 1

    def test_fully_associative_uses_whole_capacity(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(associativity="full",
                                           readahead=False))
        sectors = line_sectors(ssd)

        def scenario():
            for line in range(6):
                yield from ssd.read(line * sectors, sectors)
            for line in range(6):
                yield from ssd.read(line * sectors, sectors)

        sim.run_process(scenario())
        assert ssd.icl.read_hits == 6


class TestReplacement:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_policies_run_and_bound_capacity(self, policy):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(replacement=policy,
                                           readahead=False))
        sectors = line_sectors(ssd)
        n_lines = ssd.icl.capacity_lines + 8

        def scenario():
            for line in range(n_lines):
                yield from ssd.read((line % (n_lines)) * sectors, sectors)

        sim.run_process(scenario())
        assert ssd.icl.cached_line_count() <= ssd.icl.capacity_lines

    def test_lru_keeps_recently_used(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(replacement="lru",
                                           readahead=False))
        sectors = line_sectors(ssd)
        capacity = ssd.icl.capacity_lines

        def scenario():
            for line in range(capacity):
                yield from ssd.read(line * sectors, sectors)
            # touch line 0, then overflow by one: line 1 (LRU) must go
            yield from ssd.read(0, sectors)
            yield from ssd.read(capacity * sectors, sectors)
            hits_before = ssd.icl.read_hits
            yield from ssd.read(0, sectors)            # still cached
            assert ssd.icl.read_hits == hits_before + 1

        sim.run_process(scenario())


class TestReadModifyWrite:
    def test_subpage_write_triggers_rmw_on_flush(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(readahead=False))
        sectors_per_page = ssd.config.geometry.page_size // 512

        del sectors_per_page
        # the page exists on flash but is NOT cached (preconditioned)
        ssd.precondition_sequential()

        def scenario():
            yield from ssd.write(0, 1)    # half of a 2 KB page
            yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.icl.rmw_fetches >= 1
        assert ssd.backend.reads_issued >= 1

    def test_fullpage_write_avoids_rmw(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(readahead=False))
        sectors_per_page = ssd.config.geometry.page_size // 512

        def scenario():
            yield from ssd.write(0, sectors_per_page)
            yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.icl.rmw_fetches == 0

    def test_hashmap_off_forces_whole_line_flush(self):
        sim = Simulator()
        ssd = build(sim,
                    cache=CacheConfig(readahead=False),
                    ftl=FTLConfig(partial_update_hashmap=False,
                                  overprovision=0.25))
        sectors_per_page = ssd.config.geometry.page_size // 512

        def scenario():
            yield from ssd.write(0, sectors_per_page)   # one page of a line
            yield from ssd.flush()

        sim.run_process(scenario())
        # the whole superpage (4 pages in the tiny config) was written
        assert ssd.backend.programs_issued == ssd.config.superpage_pages

    def test_hashmap_on_writes_only_dirty_page(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(readahead=False))
        sectors_per_page = ssd.config.geometry.page_size // 512

        def scenario():
            yield from ssd.write(0, sectors_per_page)
            yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.backend.programs_issued == 1
        assert len(ssd.ftl.mapping.partial_hashmap) == 1


class TestPassThrough:
    def test_disabled_cache_goes_straight_to_flash(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(enabled=False))
        sectors_per_page = ssd.config.geometry.page_size // 512

        def scenario():
            yield from ssd.write(0, sectors_per_page)
            yield from ssd.read(0, sectors_per_page)

        sim.run_process(scenario())
        assert ssd.icl.writes_absorbed == 0
        assert ssd.backend.programs_issued >= 1
        assert ssd.backend.reads_issued >= 1

    def test_disabled_cache_subpage_write_rmw(self):
        sim = Simulator()
        ssd = build(sim, cache=CacheConfig(enabled=False))

        def scenario():
            yield from ssd.write(0, 1)

        sim.run_process(scenario())
        assert ssd.icl.rmw_fetches >= 1


class TestNarrowSetEvictionRace:
    def test_write_racing_a_conflict_flush_is_not_lost(self):
        # line 4's write evicts dirty line 0 from its direct-mapped set;
        # line 0 is rewritten while that flush is still programming flash
        sim = Simulator()
        ssd = SSD(sim, tiny_ssd_config(cache=CacheConfig(
            associativity="direct", n_sets=4, readahead=False)),
            data_emulation=True)
        sectors = line_sectors(ssd)
        page = ssd.config.geometry.page_size
        old, new = b"\x11" * page, b"\x22" * page

        def rewrite():
            yield sim.timeout(1000)
            yield from ssd.write(0, page // 512, new)

        def scenario():
            yield from ssd.write(0, page // 512, old)
            evictor = sim.process(ssd.write(4 * sectors, page // 512))
            racer = sim.process(rewrite())
            yield sim.all_of([evictor, racer])
            got = yield from ssd.read(0, page // 512)
            return got

        assert sim.run_process(scenario()) == new
