"""Figure 11: write performance vs over-provisioning ratio.

The paper's stress test: fill the device (steady state), then randomly
write 2x the whole logical space so garbage collection runs hot, and
measure random-write bandwidth for block sizes 4 KB - 1024 KB at OP
ratios 20/15/10/5%.  Lower OP leaves GC fewer spare blocks, victims
carry more valid pages, and bandwidth collapses — the normalized curves
of Fig 11.
"""

from __future__ import annotations

from typing import Dict

from repro.common.units import KB
from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.experiments.formatting import format_series
from repro.ssd.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    FlashGeometry,
    FlashTiming,
    FTLConfig,
    SSDConfig,
)

OP_RATIOS = [0.20, 0.15, 0.10, 0.05]
FULL_SIZES = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1024 * KB]
QUICK_SIZES = [4 * KB, 64 * KB]


def _stress_device(op: float, quick: bool) -> SSDConfig:
    """A small device so writing a multiple of its space is tractable.

    ``blocks_per_plane`` stays high (64) because a 5% over-provision
    must still amount to a few erase blocks per parallel unit — the same
    reason real devices have hundreds of blocks per plane.  Channel
    count shrinks instead; striping shape is preserved.
    """
    geometry = FlashGeometry(
        channels=2 if quick else 4,
        packages_per_channel=1 if quick else 2,
        dies_per_package=1, planes_per_die=2, blocks_per_plane=64,
        pages_per_block=16 if quick else 32, page_size=4 * KB)
    return SSDConfig(
        name=f"stress-op{int(op * 100)}",
        geometry=geometry,
        timing=FlashTiming(
            t_read_fast=57_000, t_read_slow=94_000,
            t_prog_fast=413_000, t_prog_slow=1_800_000,
            t_erase=3_000_000, bits_per_cell=2, channel_bus_mhz=333),
        dram=DramConfig(size=8 << 20),
        cores=CoreConfig(n_cores=3, frequency=500_000_000),
        cache=CacheConfig(fraction_of_dram=0.25),
        ftl=FTLConfig(overprovision=op, gc_threshold_free_blocks=1),
    )


def run(quick: bool = True, sizes=None, op_ratios=None,
        stress_multiplier=None) -> Dict:
    """Optional knobs shrink the sweep for the golden small configs;
    the 20% OP point must stay included (it anchors normalization)."""
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    op_ratios = op_ratios or OP_RATIOS
    if stress_multiplier is None:
        stress_multiplier = 0.5 if quick else 2.0
    results: Dict = {"op_ratios": op_ratios, "sizes": sizes, "bandwidth": {}}
    for op in op_ratios:
        per_size: Dict[int, float] = {}
        for bs in sizes:
            config = _stress_device(op, quick)
            system = FullSystem(device=config, interface="nvme")
            system.precondition()
            capacity = system.device_sectors * 512
            stress_ios = max(50, int(capacity * stress_multiplier) // bs)
            res = system.run_fio(FioJob(rw="randwrite", bs=bs,
                                        iodepth=16, total_ios=stress_ios,
                                        warmup_fraction=0.5))
            per_size[bs // KB] = {
                "bandwidth_mbps": res.bandwidth_mbps,
                "write_amplification":
                    res.ssd_stats["write_amplification"],
                "gc_runs": res.ssd_stats["gc_runs"],
            }
        results["bandwidth"][op] = per_size
    results["normalized"] = _normalize(results)
    return results


def _normalize(results: Dict) -> Dict[float, Dict[int, float]]:
    """Per the figure: bandwidth normalized to the 20% OP curve."""
    base = results["bandwidth"][0.20]
    out: Dict[float, Dict[int, float]] = {}
    for op, per_size in results["bandwidth"].items():
        out[op] = {}
        for kb, point in per_size.items():
            ref = base[kb]["bandwidth_mbps"]
            out[op][kb] = point["bandwidth_mbps"] / ref if ref else 0.0
    return out


def render(results: Dict) -> str:
    series = {f"OP {int(op * 100)}%": {kb: round(v, 3)
                                       for kb, v in per_size.items()}
              for op, per_size in results["normalized"].items()}
    table = format_series(series, "KiB",
                          "Fig 11: normalized random-write bandwidth vs OP")
    wa = {f"OP {int(op * 100)}%": {
        kb: round(v["write_amplification"], 2)
        for kb, v in per_size.items()}
        for op, per_size in results["bandwidth"].items()}
    return table + "\n\n" + format_series(wa, "KiB", "Write amplification")
