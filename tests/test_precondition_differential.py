"""Differential oracle for the closed-form bulk preconditioning fill.

``SSD.precondition_sequential`` sets a fresh device's mapping, allocator
and array state directly.  The reference here is the page-at-a-time loop
it replaced, with the per-line unit arithmetic it used, written out
unchanged: every logical page goes through ``PageAllocator.allocate``
and ``PageMapping.bind`` in line order.  Hypothesis varies the preset,
the block count, the filled fraction, the line placement, the
parallelism order and the superpage spans, and the two fills must
return the same count and leave the same device: every ``BlockState``
slot, each unit's pools in order, the ``l2p``/``p2l`` bytes, the
partial-update hashmap and the array's program/erase totals.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FullSystem
from repro.core.presets import PRESETS
from repro.sim import Simulator
from repro.ssd.device import SSD
from repro.ssd.firmware.ftl.allocator import OutOfBlocksError

from tests.conftest import tiny_ssd_config


def _reference_line_units(config, line_id):
    """The per-line unit list the page-at-a-time fill used."""
    geom = config.geometry
    span_channels = config.superpage_channels or geom.channels
    span_ways = config.superpage_ways
    slots = span_channels * span_ways * geom.planes_per_die
    planes = geom.planes_per_die
    ways = geom.ways_per_channel
    n_cgroups = geom.channels // span_channels
    n_wgroups = ways // span_ways
    if config.fil.placement == "banded":
        n_groups = n_cgroups * n_wgroups
        n_lines = config.logical_capacity // config.superpage_size
        band = min(n_groups - 1, line_id * n_groups // max(1, n_lines))
        cgroup = band // n_wgroups
        wgroup = band % n_wgroups
    else:
        cgroup = line_id % n_cgroups
        wgroup = (line_id // n_cgroups) % n_wgroups

    order = config.fil.parallelism_order
    units = []
    for slot in range(slots):
        if order == "way_first":
            w_in = slot // (span_channels * planes)
            rest = slot % (span_channels * planes)
            ch_in = rest // planes
        else:  # channel_first
            ch_in = slot // (span_ways * planes)
            rest = slot % (span_ways * planes)
            w_in = rest // planes
        plane = rest % planes
        channel = cgroup * span_channels + ch_in
        way = wgroup * span_ways + w_in
        units.append((channel * ways + way) * planes + plane)
    return units


def _reference_precondition(ssd, fraction=1.0):
    """The page-at-a-time fill ``precondition_sequential`` replaced."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if ssd.config.ftl.mapping != "page":
        raise ValueError("preconditioning supports page mapping only")
    ftl = ssd.ftl
    slots = ftl.allocator.slots_per_line
    n_lines = int(ssd.config.logical_pages * fraction) // slots
    placed = 0
    for line_id in range(n_lines):
        units = _reference_line_units(ssd.config, line_id)
        for slot in range(slots):
            lpn = ftl.line_lpn(line_id, slot)
            ppn = ftl.allocator.allocate(units[slot], ssd.sim.now)
            old = ftl.mapping.bind(lpn, ppn)
            if old is not None:
                ssd.array.invalidate_ppn(old)
            placed += 1
    return placed


def _device_state(ssd):
    """Everything either fill writes, in comparable form."""
    array, allocator, mapping = ssd.array, ssd.ftl.allocator, ssd.ftl.mapping
    blocks = [[(b.index, b.next_page, b.valid_count, b.erase_count,
                b._valid_bits, b._programmed_bits, b.last_write_time)
               for b in array.blocks_of_unit(unit)]
              for unit in range(ssd.config.geometry.parallel_units)]
    pools = [(list(state.free), state.active, list(state.filled),
              list(state.retired)) for state in allocator._units]
    return {"blocks": blocks, "pools": pools,
            "l2p": mapping.l2p.tobytes(), "p2l": mapping.p2l.tobytes(),
            "partial_hashmap": dict(mapping.partial_hashmap),
            "total_programs": array.total_programs,
            "total_erases": array.total_erases}


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _cases(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    geom = PRESETS[preset]().geometry
    return {
        "preset": preset,
        "blocks_per_plane": draw(st.integers(2, 6)),
        "fraction": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "placement": draw(st.sampled_from(["rotate", "banded"])),
        "order": draw(st.sampled_from(["channel_first", "way_first"])),
        "superpage_channels": draw(
            st.sampled_from([0] + _divisors(geom.channels))),
        "superpage_ways": draw(
            st.sampled_from(_divisors(geom.ways_per_channel))),
        "now": draw(st.integers(0, 10**7)),
    }


def _config(case):
    config = PRESETS[case["preset"]](blocks_per_plane=case["blocks_per_plane"])
    return config.with_overrides(
        fil=replace(config.fil, placement=case["placement"],
                    parallelism_order=case["order"]),
        superpage_channels=case["superpage_channels"],
        superpage_ways=case["superpage_ways"])


def _fresh_ssd(config, now=0):
    sim = Simulator()
    sim.run(until=now)
    return SSD(sim, config)


@settings(max_examples=80, deadline=None)
@given(_cases())
@example({"preset": "intel750", "blocks_per_plane": 6, "fraction": 1.0,
          "placement": "rotate", "order": "channel_first",
          "superpage_channels": 0, "superpage_ways": 1, "now": 0})
@example({"preset": "983dct", "blocks_per_plane": 3, "fraction": 0.37,
          "placement": "banded", "order": "way_first",
          "superpage_channels": 2, "superpage_ways": 2, "now": 5})
def test_bulk_fill_matches_the_page_loop(case):
    config = _config(case)
    fast, slow = _fresh_ssd(config, case["now"]), _fresh_ssd(config, case["now"])
    assert fast.precondition_sequential(case["fraction"]) == \
        _reference_precondition(slow, case["fraction"])
    assert _device_state(fast) == _device_state(slow)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_group_units_match_the_per_line_units(name):
    """Every line of every placement and order finds the reference units."""
    for placement in ("rotate", "banded"):
        for order in ("channel_first", "way_first"):
            config = _config({"preset": name, "blocks_per_plane": 2,
                              "placement": placement, "order": order,
                              "superpage_channels": 0, "superpage_ways": 1})
            allocator = SSD(Simulator(), config).ftl.allocator
            for line in range(config.logical_pages
                              // allocator.slots_per_line):
                assert allocator.group_units(allocator.line_group(line)) \
                    == tuple(_reference_line_units(config, line)), line


def test_second_precondition_raises():
    system = FullSystem(device=tiny_ssd_config(), interface="nvme")
    system.precondition(0.5)
    with pytest.raises(RuntimeError, match="fresh"):
        system.precondition(0.5)


def test_precondition_after_a_host_write_raises():
    ssd = _fresh_ssd(tiny_ssd_config())

    def write_and_flush():
        yield from ssd.write(0, 64)
        yield from ssd.flush()

    ssd.sim.run_process(write_and_flush())
    assert ssd.array.total_programs > 0
    with pytest.raises(RuntimeError, match="fresh"):
        ssd.precondition_sequential()


def test_overrun_raises_out_of_blocks_like_the_page_loop():
    """A unit short of free blocks stops both fills."""
    fills = (SSD.precondition_sequential, _reference_precondition)
    for fill in fills:
        ssd = _fresh_ssd(tiny_ssd_config())
        ssd.ftl.allocator._units[0].free.clear()
        with pytest.raises(OutOfBlocksError):
            fill(ssd)
