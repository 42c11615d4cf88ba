"""Shared fixtures: small SSD configurations that keep tests fast."""

import pytest

from repro.sim import Simulator, observe
from repro.ssd.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    FlashGeometry,
    FlashTiming,
    FTLConfig,
    SSDConfig,
)


def tiny_ssd_config(**overrides) -> SSDConfig:
    """A 1 MB SSD: 2 channels x 1 package x 2 planes x 8 blocks x 16 pages."""
    base = dict(
        name="tiny",
        geometry=FlashGeometry(
            channels=2, packages_per_channel=1, dies_per_package=1,
            planes_per_die=2, blocks_per_plane=8, pages_per_block=16,
            page_size=2048),
        timing=FlashTiming(
            t_read_fast=20_000, t_read_slow=35_000,
            t_prog_fast=200_000, t_prog_slow=500_000,
            t_erase=1_000_000, channel_bus_mhz=200, t_cmd=200),
        dram=DramConfig(size=256 * 1024),
        cores=CoreConfig(n_cores=3, frequency=400_000_000),
        cache=CacheConfig(readahead_superpages=2),
        ftl=FTLConfig(overprovision=0.25, gc_threshold_free_blocks=1,
                      wear_delta_threshold=4),
    )
    base.update(overrides)
    return SSDConfig(**base)


@pytest.fixture(autouse=True)
def _no_leaked_construction_hooks():
    """Fail a test that leaves an ``enable_*`` switch armed: every such
    switch installs a construction hook in :mod:`repro.sim.observe`."""
    before = observe.hooks()
    yield
    leaked = [hook for hook in observe.hooks() if hook not in before]
    for hook in leaked:
        observe.remove_hook(hook)
    assert not leaked, f"test left construction hooks installed: {leaked}"


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tiny_config():
    return tiny_ssd_config()
