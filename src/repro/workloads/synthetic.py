"""Synthetic FIO microbenchmark patterns used throughout the evaluation.

The closed-loop seq/rand grids of the paper figures.  The open-loop
arrival processes and the Zipfian hotspot mixer of multi-tenant traffic
live beside their consumer in :mod:`repro.core.arrivals`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.fio import FioJob

#: the four micro-benchmarks of Figs 3, 4, 8, 9, 10
PATTERN_RW = {
    "seqread": "read",
    "randread": "randread",
    "seqwrite": "write",
    "randwrite": "randwrite",
}


def standard_patterns(bs: int = 4096, iodepth: int = 16,
                      total_ios: int = 1000) -> Dict[str, FioJob]:
    """The seq/rand x read/write grid as FIO jobs."""
    return {
        name: FioJob(rw=rw, bs=bs, iodepth=iodepth, total_ios=total_ios)
        for name, rw in PATTERN_RW.items()
    }


def depth_sweep(pattern: str, depths: Iterable[int], bs: int = 4096,
                total_ios: int = 1000) -> List[FioJob]:
    """One job per I/O depth for bandwidth/latency-vs-depth figures."""
    rw = PATTERN_RW[pattern]
    return [FioJob(rw=rw, bs=bs, iodepth=depth, total_ios=total_ios)
            for depth in depths]


def blocksize_sweep(pattern: str, sizes: Iterable[int], iodepth: int = 16,
                    total_ios: int = 500) -> List[FioJob]:
    """One job per block size for the Fig 10 sweep (4 KB - 1024 KB)."""
    rw = PATTERN_RW[pattern]
    return [FioJob(rw=rw, bs=size, iodepth=iodepth, total_ios=total_ios)
            for size in sizes]
