"""Multi-tenant workload engine: N tenants sharing one simulated SSD.

Each tenant gets its own NVMe namespace (a contiguous slice of the
device, see :meth:`NvmeDriver.provision_namespaces`) and its own
submission queue, so the device-side arbiter
(:mod:`repro.ssd.firmware.arbiter`) is what decides whose commands are
served under contention.  Tenants run either *closed-loop* (a fixed
``iodepth``, FIO-style) or *open-loop* (requests injected at times
drawn from an arrival process in :mod:`repro.core.arrivals`,
regardless of completions — the regime where queueing delay and QoS
policy dominate tail latency).

Accounting is per tenant: a :class:`LatencyRecorder` each, live
``tenantN.*`` gauges in the system :class:`MetricsRegistry` (sampled by
telemetry epochs like every other layer), and a device-wide rollup that
is the *exact* histogram merge of the per-tenant recorders.

The engine forces ``O_DIRECT`` submission: the shared page cache is
indexed by namespace-relative LBAs, which would alias across tenants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.stats import jain_fairness
from repro.common.units import MB, SEC
from repro.core.arrivals import ZipfianHotspot, arrival_from_spec
from repro.core.metrics import MultiTenantResult, TenantResult

_USER_SUBMIT = InstructionMix.typical(700)
_USER_REAP = InstructionMix.typical(400)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its traffic shape, QoS class and capacity share."""

    name: str = ""
    rw: str = "randread"            # read|write|randread|randwrite|randrw
    bs: int = 4096                  # request size, bytes
    iodepth: int = 8                # closed-loop depth (when arrival is None)
    total_ios: int = 0              # 0 = bounded by the job's runtime_ns
    #: open-loop arrival spec for ``arrival_from_spec`` (None = closed loop)
    arrival: Optional[Dict] = None
    zipf_theta: float = 0.0         # 0 = uniform addressing
    weight: int = 1                 # WFQ share (device hil.qos_weights)
    priority: int = 1               # WRR class: 0 high, 1 medium, 2 low
    size_fraction: float = 0.0      # capacity share; 0 = equal split
    rwmixread: int = 70             # % reads for randrw
    seed: int = 0                   # extra per-tenant seed salt

    def __post_init__(self) -> None:
        if self.bs % 512:
            raise ValueError("block size must be a sector multiple")
        if self.rw not in ("read", "write", "randread", "randwrite", "randrw"):
            raise ValueError(f"unknown rw mode {self.rw!r}")
        if self.iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if not 0.0 <= self.size_fraction <= 1.0:
            raise ValueError("size_fraction must be in [0, 1]")

    @property
    def is_random(self) -> bool:
        """True for randomly-addressed modes."""
        return self.rw.startswith("rand")

    def kind_for(self, rng: random.Random) -> IOKind:
        """Draw the next request's direction for this tenant."""
        if self.rw in ("read", "randread"):
            return IOKind.READ
        if self.rw in ("write", "randwrite"):
            return IOKind.WRITE
        return IOKind.READ if rng.randrange(100) < self.rwmixread \
            else IOKind.WRITE


@dataclass
class MultiTenantJob:
    """A co-located tenant mix plus the run's global bounds."""

    tenants: Tuple[TenantSpec, ...] = ()
    runtime_ns: Optional[int] = None
    seed: int = 1234
    warmup_fraction: float = 0.15   # excluded from steady-state stats

    def __post_init__(self) -> None:
        self.tenants = tuple(self.tenants)
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.runtime_ns is None and any(t.total_ios <= 0
                                           for t in self.tenants):
            raise ValueError("tenants without total_ios need a job runtime_ns")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


class _TenantState:
    """Mutable per-tenant run state shared with metric lambdas."""

    __slots__ = ("spec", "index", "nsid", "n_sectors", "qid", "issued",
                 "completed", "bytes", "outstanding", "latency", "bandwidth",
                 "done_event")

    def __init__(self, spec: TenantSpec, index: int, nsid: int,
                 n_sectors: int, qid: int) -> None:
        self.spec = spec
        self.index = index
        self.nsid = nsid
        self.n_sectors = n_sectors
        self.qid = qid
        self.issued = 0
        self.completed = 0
        self.bytes = 0
        self.outstanding = 0
        self.latency = LatencyRecorder()
        self.bandwidth = BandwidthRecorder()
        self.done_event = [None]


def tenant_sizes(total_sectors: int, tenants: Sequence[TenantSpec],
                 align_sectors: int) -> List[int]:
    """Partition a device's sectors across tenants, alignment-floored.

    Tenants with ``size_fraction == 0`` share whatever fraction the
    explicit ones leave over, equally.
    """
    explicit = sum(t.size_fraction for t in tenants)
    if explicit > 1.0 + 1e-9:
        raise ValueError("tenant size fractions exceed the device")
    implicit = [t for t in tenants if not t.size_fraction]
    rest = max(0.0, 1.0 - explicit) / len(implicit) if implicit else 0.0
    sizes = []
    for t in tenants:
        fraction = t.size_fraction or rest
        sectors = int(total_sectors * fraction)
        sectors = (sectors // align_sectors) * align_sectors
        if sectors < align_sectors:
            raise ValueError(f"tenant {t.name or len(sizes)} share too small")
        sizes.append(sectors)
    return sizes


class MultiTenantEngine:
    """Runs a :class:`MultiTenantJob` against a wired-up ``FullSystem``."""

    def __init__(self, system) -> None:
        if system.interface != "nvme":
            raise ValueError("multi-tenant runs need NVMe namespaces")
        self.system = system

    # -- setup ---------------------------------------------------------------

    def _provision(self, job: MultiTenantJob) -> List[_TenantState]:
        """Partition namespaces, queues, priorities; build tenant states."""
        system = self.system
        adapter = system.adapter
        align = max(1, system.ssd.config.superpage_size // 512)
        sizes = tenant_sizes(system.device_sectors, job.tenants, align)
        namespaces = adapter.provision_namespaces(sizes)
        # one submission queue per tenant: tenant i -> qid i + 1
        while adapter.n_io_queues < len(job.tenants):
            adapter.create_io_queue_pair(adapter.n_io_queues + 1)
        states = []
        for index, (spec, ns) in enumerate(zip(job.tenants, namespaces)):
            qid = 1 + index
            system.controller.queue_priorities[qid] = spec.priority
            states.append(_TenantState(spec, index, ns.nsid,
                                       ns.n_sectors, qid))
        self._register_tenant_metrics(states)
        return states

    def _register_tenant_metrics(self, states: List[_TenantState]) -> None:
        """Publish live ``tenantN.*`` gauges into the system registry.

        Telemetry epochs sample these like any other layer's metrics, so
        fairness is observable over time, not just post-run.  Guarded so
        a second engine on the same system does not double-register.
        """
        reg = self.system.metrics
        hil = self.system.ssd.hil
        for state in states:
            prefix = f"tenant{state.index}"
            if f"{prefix}.issued" in reg:
                continue
            scope = reg.scoped(prefix)
            scope.register("issued", lambda s=state: float(s.issued))
            scope.register("completed", lambda s=state: float(s.completed))
            scope.register("bytes", lambda s=state: float(s.bytes))
            scope.register("outstanding",
                           lambda s=state: float(s.outstanding))
            scope.register("p99_latency_us",
                           lambda s=state:
                           s.latency.percentile(99) / 1000.0)
            scope.register("grants",
                           lambda s=state, h=hil:
                           float(h.arbiter.grants.get(s.qid, 0)))

    # -- the per-tenant submission loop --------------------------------------

    def _tenant_proc(self, state: _TenantState, job: MultiTenantJob,
                     deadline: Optional[int], warmup_end: Optional[int]):
        """Process generator: one tenant's issue loop plus drain."""
        system = self.system
        sim = system.sim
        spec = state.spec
        rng = random.Random((job.seed * 0x9E3779B1 + spec.seed
                             + 7919 * state.index) & 0x7FFFFFFFFFFF)
        sectors = spec.bs // 512
        n_blocks = state.n_sectors // sectors
        if n_blocks < 1:
            raise ValueError("tenant namespace smaller than one request")
        zipf = ZipfianHotspot(n_blocks, spec.zipf_theta) \
            if spec.zipf_theta else None
        arrival = arrival_from_spec(spec.arrival) if spec.arrival else None
        warmup_ios = int(spec.total_ios * job.warmup_fraction) \
            if spec.total_ios else 0
        next_seq = 0

        def on_complete(req, t_submit):
            """Completion callback factory; freezes the issue-time size."""
            nbytes = req.nbytes

            def _cb(_event):
                """Account one completion against this tenant."""
                state.outstanding -= 1
                state.completed += 1
                state.bytes += nbytes
                past_warmup = state.completed > warmup_ios \
                    if spec.total_ios else (warmup_end is None
                                            or t_submit >= warmup_end)
                if past_warmup:
                    state.latency.record(sim.now - t_submit)
                    state.bandwidth.record(nbytes, sim.now)
                if state.done_event[0] is not None:
                    event, state.done_event[0] = state.done_event[0], None
                    event.succeed()
            return _cb

        while True:
            if spec.total_ios and state.issued >= spec.total_ios:
                break
            if deadline is not None and sim.now >= deadline:
                break
            if arrival is not None:
                # open loop: next arrival fires no matter what is queued
                yield sim.timeout(arrival.next_gap_ns(rng, sim.now))
                if deadline is not None and sim.now >= deadline:
                    break
            elif state.outstanding >= spec.iodepth:
                state.done_event[0] = sim.event()
                yield state.done_event[0]
                continue
            if zipf is not None:
                block = zipf.item(rng)
            elif spec.is_random:
                block = rng.randrange(n_blocks)
            else:
                block = next_seq % n_blocks
                next_seq += 1
            kind = spec.kind_for(rng)
            req = IORequest(kind, block * sectors, sectors,
                            nsid=state.nsid)
            req.queue_id = state.index
            yield from system.cpu.execute(_USER_SUBMIT, core=state.index,
                                          kernel=False)
            req.t_submit = sim.now
            completion = yield from system.submit_io(
                req, stream_id=state.index, core=state.index, direct=True)
            completion.add_callback(on_complete(req, req.t_submit))
            state.outstanding += 1
            state.issued += 1
            yield from system.cpu.execute(_USER_REAP, core=state.index,
                                          kernel=False)

        while state.outstanding > 0:
            state.done_event[0] = sim.event()
            yield state.done_event[0]

    # -- the run -------------------------------------------------------------

    def run(self, job: MultiTenantJob) -> MultiTenantResult:
        """Execute every tenant concurrently; report per-tenant + rollup."""
        system = self.system
        sim = system.sim
        states = self._provision(job)
        start_ns = sim.now
        deadline = (start_ns + job.runtime_ns) if job.runtime_ns else None
        warmup_end = (start_ns
                      + int(job.runtime_ns * job.warmup_fraction)) \
            if job.runtime_ns else None

        buf_bytes = sum(max(s.spec.iodepth, 64) * s.spec.bs
                        for s in states) + 16 * MB
        system.memory.allocate("tenants", buf_bytes)
        procs = [sim.process(self._tenant_proc(state, job, deadline,
                                               warmup_end))
                 for state in states]

        def waiter():
            """Join every tenant process."""
            for proc in procs:
                yield proc

        sim.run_process(waiter())
        system.memory.free("tenants")
        elapsed = sim.now - start_ns

        tenants: List[TenantResult] = []
        merged = LatencyRecorder()
        for state in states:
            seconds = elapsed / SEC if elapsed else 0.0
            tenants.append(TenantResult(
                name=state.spec.name or f"tenant{state.index}",
                nsid=state.nsid,
                issued=state.issued,
                completed=state.completed,
                total_bytes=state.bytes,
                bandwidth_mbps=(state.bytes / MB) / seconds
                if seconds else 0.0,
                iops=state.completed / seconds if seconds else 0.0,
                latency=state.latency,
            ))
            merged.merge(state.latency)

        total_bytes = sum(t.total_bytes for t in tenants)
        total_ios = sum(t.completed for t in tenants)
        seconds = elapsed / SEC if elapsed else 0.0
        return MultiTenantResult(
            tenants=tenants,
            elapsed_ns=elapsed,
            total_ios=total_ios,
            total_bytes=total_bytes,
            bandwidth_mbps=(total_bytes / MB) / seconds if seconds else 0.0,
            iops=total_ios / seconds if seconds else 0.0,
            latency=merged,
            fairness=jain_fairness([t.total_bytes for t in tenants]),
            arbitration=system.ssd.config.hil.arbitration,
            grants=dict(system.ssd.hil.arbiter.grants),
            ssd_stats=system.ssd.stats_report(),
        )
