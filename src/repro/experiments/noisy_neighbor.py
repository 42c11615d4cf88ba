"""Noisy neighbor: tenant interference and what QoS mechanisms recover.

A latency-sensitive *victim* (open-loop Poisson random reads with a
Zipfian hotspot) shares one SSD with a write-storm *aggressor*
(closed-loop large sequential-ish random writes that keep GC hot).
Four variants isolate where the victim's tail latency goes and which
mechanism buys it back:

* ``isolated`` — the victim alone on the device: the baseline tail.
* ``rr``       — co-located, plain round-robin arbitration: the
  aggressor's large writes and the GC they trigger inflate victim p99.
* ``wfq``      — co-located, weighted fair queueing with the victim
  weighted 8:1: the HIL stops letting the write backlog starve reads
  (arbitration-level recovery; shared-GC interference remains).
* ``banded``   — co-located, banded line placement with ample command
  slots: each namespace maps to its own channel+die band, so the
  aggressor's programs and the GC they trigger never touch the victim's
  path.  This attacks the *other* bottleneck: where WFQ reorders fetch
  at a scarce in-flight window, banding removes die/GC contention
  outright (no fair queueing needed — plain ``rr`` with an unbounded
  window), at the cost of halving each tenant's peak parallelism.
  Recovery is near-total: victim p99 lands within ~2x of ``isolated``.

The device runs its data cache write-through: a shared write-back
cache couples tenants through dirty-line eviction (a read miss can
wait on a flush stuck behind the aggressor's GC), which would mask
both mechanisms under test.  Cache partitioning is its own mechanism,
out of scope here.

The assertions pinned by ``tests/test_multitenant_differential.py``:
victim p99 under ``rr`` strictly exceeds ``isolated``, and both ``wfq``
and ``banded`` measurably recover from ``rr``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.units import KB
from repro.core.system import FullSystem
from repro.core.tenants import MultiTenantJob, TenantSpec
from repro.experiments.formatting import format_series
from repro.ssd.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    FILConfig,
    FlashGeometry,
    FlashTiming,
    FTLConfig,
    HILConfig,
    SSDConfig,
)

VARIANTS = ("isolated", "rr", "wfq", "banded")

#: WFQ weight for the victim (aggressor gets 1)
VICTIM_WEIGHT = 8


def _device(arbitration: str, placement: str, inflight_limit: int,
            quick: bool) -> SSDConfig:
    """A small shared device that backs up under a write storm.

    ``superpage_channels=1`` keeps one channel per band, so ``banded``
    placement gives each tenant private channels *and* private dies;
    a finite ``inflight_limit`` makes commands queue at the HIL, where
    the arbiter — not arrival order — decides who waits.
    """
    geometry = FlashGeometry(
        channels=2, packages_per_channel=2 if quick else 4,
        dies_per_package=1, planes_per_die=2, blocks_per_plane=32,
        pages_per_block=16 if quick else 32, page_size=4 * KB)
    return SSDConfig(
        name=f"noisy-{arbitration}-{placement}",
        geometry=geometry,
        timing=FlashTiming(
            t_read_fast=57_000, t_read_slow=94_000,
            t_prog_fast=413_000, t_prog_slow=1_800_000,
            t_erase=3_000_000, bits_per_cell=2, channel_bus_mhz=333),
        dram=DramConfig(size=8 << 20),
        cores=CoreConfig(n_cores=3, frequency=500_000_000),
        cache=CacheConfig(enabled=False),
        ftl=FTLConfig(overprovision=0.10, gc_threshold_free_blocks=1),
        hil=HILConfig(arbitration=arbitration,
                      qos_weights=(VICTIM_WEIGHT, 1),
                      inflight_limit=inflight_limit),
        fil=FILConfig(placement=placement),
        superpage_channels=1, superpage_ways=1,
    )


def _tenants(variant: str, quick: bool) -> List[TenantSpec]:
    """The victim (and, unless isolated, the aggressor) for a variant."""
    victim = TenantSpec(
        name="victim", rw="randread", bs=4 * KB,
        arrival={"kind": "poisson", "rate_iops": 6_000 if quick else 10_000},
        zipf_theta=0.9, weight=VICTIM_WEIGHT, priority=0,
        size_fraction=0.5)
    if variant == "isolated":
        return [victim]
    aggressor = TenantSpec(
        name="aggressor", rw="randwrite", bs=8 * KB,
        iodepth=32, weight=1, priority=2, size_fraction=0.5)
    return [victim, aggressor]


def _variant_config(variant: str) -> Dict:
    """Device knobs per variant (isolated runs the rr baseline device).

    ``inflight_limit`` is part of each mechanism's configuration: the
    arbitration variants keep a scarce in-flight window (8 slots) so
    the arbiter's fetch order is what shapes the tail; the banding
    variant runs an unbounded window so die isolation — not slot
    scheduling — is the mechanism under test.
    """
    return {
        "isolated": {"arbitration": "rr", "placement": "rotate",
                     "inflight_limit": 8},
        "rr": {"arbitration": "rr", "placement": "rotate",
               "inflight_limit": 8},
        "wfq": {"arbitration": "wfq", "placement": "rotate",
                "inflight_limit": 8},
        "banded": {"arbitration": "rr", "placement": "banded",
                   "inflight_limit": 0},
    }[variant]


def run(quick: bool = True, runtime_ms: Optional[int] = None,
        variants=None, seed: int = 4242) -> Dict:
    """Run every variant; report victim tail latency and device effects."""
    runtime_ns = (runtime_ms or (60 if quick else 200)) * 1_000_000
    out: Dict = {"variants": {}, "victim_p99_us": {}}
    for variant in (variants or VARIANTS):
        knobs = _variant_config(variant)
        config = _device(knobs["arbitration"], knobs["placement"],
                         knobs["inflight_limit"], quick)
        system = FullSystem(device=config, interface="nvme")
        system.precondition()
        job = MultiTenantJob(tenants=_tenants(variant, quick),
                             runtime_ns=runtime_ns, seed=seed,
                             warmup_fraction=0.2)
        result = system.run_multi_tenant(job)
        victim = result.tenant(0)
        doc = {
            "arbitration": result.arbitration,
            "placement": knobs["placement"],
            "victim": victim.summary(),
            "fairness": result.fairness,
            "grants": {str(qid): count
                       for qid, count in sorted(result.grants.items())},
            "write_amplification":
                result.ssd_stats.get("write_amplification", 1.0),
            "gc_runs": result.ssd_stats.get("gc_runs", 0),
            "tenant_metrics": {
                f"tenant{i}": system.metrics.snapshot(f"tenant{i}")
                for i in range(len(result.tenants))},
        }
        if len(result.tenants) > 1:
            doc["aggressor"] = result.tenant(1).summary()
        out["variants"][variant] = doc
        out["victim_p99_us"][variant] = doc["victim"]["p99_latency_us"]
    out["recovery"] = _recovery(out["victim_p99_us"])
    return out


def _recovery(p99: Dict[str, float]) -> Dict[str, float]:
    """Victim p99 ratios: how bad rr got, how much each fix bought back."""
    ratios: Dict[str, float] = {}
    rr = p99.get("rr")
    isolated = p99.get("isolated")
    if rr and isolated:
        ratios["rr_vs_isolated"] = rr / isolated
    for fix in ("wfq", "banded"):
        if rr and p99.get(fix):
            ratios[f"{fix}_vs_rr"] = p99[fix] / rr
    return ratios


def render(results: Dict) -> str:
    """Victim p99 per variant plus the interference/recovery ratios."""
    table = format_series(
        {"victim p99 (µs)": {variant: round(value, 1)
                             for variant, value in
                             results["victim_p99_us"].items()}},
        "variant", "Noisy neighbor: victim tail latency")
    lines = [table, ""]
    for name, value in sorted(results["recovery"].items()):
        lines.append(f"  {name}: {value:.2f}x")
    return "\n".join(lines)
