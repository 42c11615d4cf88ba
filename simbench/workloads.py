"""The benchmark's four workloads, built only from the simulator's public API.

Each workload is a :class:`Workload` whose ``setup(seed, size, slices)``
builds a fresh system (timed as set-up).  The state it returns holds the
timed region as ``steps``, run and timed one after another, and its
``result()`` gives a :class:`Rep`: the deterministic outputs that are
checked against the pins, the number of operations attempted and
completed, and the simulated-time counters the traced run reports.

Every workload is deterministic in its seed: the same seed and size give
the same outputs on every repeat, which is what ``run.py`` checks.
"""

from __future__ import annotations

import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.common.recorders import LatencyRecorder  # noqa: E402
from repro.core import FioJob, FioResult, FullSystem, presets  # noqa: E402
from repro.sim import AllOf, AnyOf, Resource, Simulator, Store  # noqa: E402
from repro.ssd.config import (  # noqa: E402
    CacheConfig,
    CoreConfig,
    DramConfig,
    FlashGeometry,
    FlashTiming,
    FTLConfig,
    SSDConfig,
)

#: the seed whose outputs are pinned in ``pins.json`` (FioJob's default,
#: so the fio workloads at full size replay the older BENCH scenarios)
DEFAULT_SEED = 1234
#: a seed kept out of tuning: its runs are checked only for repeat equality
HELD_OUT_SEED = 20261017

#: the hot region of ``randrw_hot_cache``: about twice the ICL's 2 MB
HOT_REGION_BYTES = 4 << 20


@dataclass
class Rep:
    """What one repeat of a workload produced."""

    attempted: int
    completed: int
    #: deterministic outputs, compared against the pins and across repeats
    outputs: Dict[str, float]
    #: simulated-time counters reported by the traced run
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    #: operations per repeat
    size: int
    #: setup(seed, size, slices=..., hook=None) -> state whose ``steps`` are
    #: timed one by one and whose ``result()`` gives the Rep; ``hook`` gets
    #: the built system before it is preconditioned
    setup: Callable[..., object]
    #: how many separately timed steps a repeat is cut into
    slices: int
    #: layers that must record calls in the traced run
    active_layers: List[str]


# -- kernel_churn --------------------------------------------------------------

CHURN_WORKERS = 64


@dataclass
class _Churn:
    sim: Simulator
    n_rounds: int
    #: worker rounds the drain process has received
    drained: List[int]

    @property
    def steps(self) -> List[Callable[[], None]]:
        return [self.sim.run]

    def result(self) -> Rep:
        sim = self.sim
        ops = CHURN_WORKERS * self.n_rounds
        done = self.drained[0]
        return Rep(attempted=ops, completed=done,
                   outputs={"events": sim.events_processed, "sim_ns": sim.now,
                            "ops": done})


def churn_phases(seed: int) -> List[int]:
    """Per-worker timeout phase offsets drawn from the seed."""
    rng = random.Random(seed)
    return [rng.randrange(97) for _ in range(CHURN_WORKERS)]


def build_churn(n_rounds: int, phases: List[int]) -> _Churn:
    """Processes trading timeouts, a Resource, a Store and AllOf/AnyOf.

    With every phase 0 this is the older ``kernel_churn`` scenario.
    """
    sim = Simulator()
    gate = Resource(sim, capacity=4)
    mailbox = Store(sim)

    def worker(index: int):
        phase = phases[index]
        for round_no in range(n_rounds):
            yield sim.timeout((index * 7 + round_no * 13 + phase) % 97 + 1)
            yield gate.acquire()
            try:
                yield sim.timeout(11)
            finally:
                gate.release()
            mailbox.put((index, round_no))
            yield AllOf(sim, [sim.timeout(3), sim.timeout(5)])
            yield AnyOf(sim, [sim.timeout(2), sim.timeout(9)])

    drained = [0]

    def drain(total: int):
        for _ in range(total):
            yield mailbox.get()
            drained[0] += 1

    for i in range(len(phases)):
        sim.process(worker(i))
    sim.process(drain(len(phases) * n_rounds))
    return _Churn(sim, n_rounds, drained)


def _churn_setup(seed: int, size: int, slices: int = 1, hook=None) -> _Churn:
    return build_churn(size // CHURN_WORKERS, churn_phases(seed))


# -- the fio workloads ---------------------------------------------------------

def storm_config() -> SSDConfig:
    """A small 10%-overprovisioned device, so short runs drive GC hard."""
    return SSDConfig(
        name="bench-storm",
        geometry=FlashGeometry(
            channels=2, packages_per_channel=1, dies_per_package=1,
            planes_per_die=2, blocks_per_plane=64, pages_per_block=16,
            page_size=4096),
        timing=FlashTiming(
            t_read_fast=57_000, t_read_slow=94_000,
            t_prog_fast=413_000, t_prog_slow=1_800_000,
            t_erase=3_000_000, bits_per_cell=2, channel_bus_mhz=333),
        dram=DramConfig(size=8 << 20),
        cores=CoreConfig(n_cores=3, frequency=500_000_000),
        cache=CacheConfig(fraction_of_dram=0.25),
        ftl=FTLConfig(overprovision=0.10, gc_threshold_free_blocks=1),
    )


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class _Fio:
    """A preconditioned system and the fio jobs one repeat runs in turn."""

    def __init__(self, system: FullSystem, jobs: List[FioJob]) -> None:
        self.system = system
        self.jobs = jobs
        self.results: List[FioResult] = []

    @property
    def steps(self) -> List[Callable[[], None]]:
        return [lambda job=job: self.results.append(self.system.run_fio(job))
                for job in self.jobs]

    def result(self) -> Rep:
        system, ssd = self.system, self.system.ssd
        latency = LatencyRecorder()
        for res in self.results:
            latency.merge(res.latency)
        # device counters are cumulative, so the last job's report covers all
        stats = self.results[-1].ssd_stats
        p50_us = latency.percentile(50) / 1000.0
        p99_us = latency.percentile(99) / 1000.0
        completed = sum(res.total_ios for res in self.results)
        outputs = {
            "events": system.sim.events_processed,
            "sim_ns": system.sim.now,
            "ops": completed,
            "p50_us": p50_us,
            "p99_us": p99_us,
            "write_amplification": stats["write_amplification"],
            "gc_runs": stats["gc_runs"],
            "icl_hit_rate": stats["cache_hit_rate"],
            "flash_reads": stats["flash_reads"],
            "flash_programs": stats["flash_programs"],
            "flash_erases": stats["flash_erases"],
        }
        counters = {
            "hostos.merged": system.blocklayer.requests_merged,
            "hil.commands": ssd.hil.commands_completed,
            "icl.hit_rate": stats["cache_hit_rate"],
            "icl.lines_flushed": stats["lines_flushed"],
            "icl.readaheads": stats["readaheads"],
            "ftl.gc_runs": stats["gc_runs"],
            "ftl.gc_pages_migrated": ssd.ftl.gc_pages_migrated,
            "ftl.write_amplification": stats["write_amplification"],
            "storage.reads": stats["flash_reads"],
            "storage.programs": stats["flash_programs"],
            "storage.erases": stats["flash_erases"],
            "storage.channel_util": _mean(ssd.backend.channel_utilizations()),
            "storage.die_util": _mean(ssd.backend.die_utilizations()),
            "sim.p50_us": p50_us,
            "sim.p99_us": p99_us,
        }
        # stage means over every job, weighted by the requests each measured
        weights = [res.latency.count for res in self.results]
        for stage in self.results[0].stage_breakdown:
            total = sum(w * res.stage_breakdown[stage]
                        for w, res in zip(weights, self.results))
            counters[f"stage.{stage}_ns"] = total / sum(weights)
        return Rep(attempted=sum(job.total_ios for job in self.jobs),
                   completed=completed, outputs=outputs, counters=counters)


def _fio_setup(device: Callable[[], SSDConfig], job: Callable[[int, int], FioJob]):
    """A set-up function: build the system, precondition it, make the jobs.

    A repeat of ``size`` I/Os runs as ``slices`` jobs of equal size, job
    ``j`` seeded ``seed + 104729 * j``; one slice replays a single job.
    """
    def setup(seed: int, size: int, slices: int = 1,
              hook: Optional[Callable[[FullSystem], None]] = None) -> _Fio:
        system = FullSystem(device=device(), interface="nvme")
        if hook is not None:
            hook(system)
        system.precondition()
        return _Fio(system, [job(seed + 104729 * j, size // slices)
                             for j in range(slices)])
    return setup


def _randread_job(seed: int, size: int) -> FioJob:
    return FioJob(rw="randread", bs=4096, iodepth=16, total_ios=size, seed=seed)


def _storm_job(seed: int, size: int) -> FioJob:
    return FioJob(rw="randwrite", bs=4096, iodepth=16, total_ios=size,
                  warmup_fraction=0.5, seed=seed)


def _hot_job(seed: int, size: int) -> FioJob:
    return FioJob(rw="randrw", rwmixread=70, bs=4096, iodepth=16,
                  total_ios=size, size=HOT_REGION_BYTES, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "kernel_churn",
        "the sim kernel alone, so a kernel change shows undiluted and SSD or host changes show none",
        size=CHURN_WORKERS * 100,
        setup=_churn_setup, slices=1, active_layers=[]),
    Workload(
        "randread_nvme",
        "Fig 16 point: 4 KB random reads at QD16 on a preconditioned intel750, the full read path",
        size=1500,
        setup=_fio_setup(presets.intel750, _randread_job), slices=10,
        active_layers=list(LAYERS)),
    Workload(
        "write_storm_gc",
        "random writes on a small 10%-OP device: ICL writeback, FTL allocation, GC and erase dominate",
        size=1000,
        setup=_fio_setup(storm_config, _storm_job), slices=10,
        active_layers=list(LAYERS)),
    Workload(
        "randrw_hot_cache",
        "70% read randrw over a hot region twice the ICL size: ICL hits, readahead and flushes beside reads",
        size=3000,
        setup=_fio_setup(storm_config, _hot_job), slices=10,
        active_layers=list(LAYERS)),
]}
