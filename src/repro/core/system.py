"""FullSystem: host + OS + interface + SSD wired together.

The facade a user of this library builds experiments on.  It owns the
simulator, assembles a platform (Table II), a kernel profile, a storage
interface (SATA/UFS/NVMe/OCSSD) and the SSD model, and exposes the
FIO-like workload engine plus direct I/O entry points.
"""

from __future__ import annotations

from typing import Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.core.fio import FioEngine, FioJob
from repro.core.metrics import FioResult
from repro.host.bus import SystemBus
from repro.host.cpu import CpuModel, HostCpu
from repro.host.dma import DmaEngine
from repro.host.memory import HostMemory
from repro.host.pcie import PcieLink, SataLink, UfsLink
from repro.host.platform import HostPlatform, mobile_platform, pc_platform
from repro.hostos.blocklayer import BlockLayer
from repro.hostos.kernel import KernelProfile, kernel_by_version
from repro.hostos.pagecache import PageCache
from repro.obs import MetricsRegistry
from repro.obs.telemetry import probe_of
from repro.sim import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD

INTERFACES = ("nvme", "sata", "ufs", "ocssd")


class FullSystem:
    def __init__(self, device: SSDConfig, interface: str = "nvme",
                 platform: Optional[HostPlatform] = None,
                 kernel: str = "4.14",
                 cpu_model: Optional[CpuModel] = None,
                 data_emulation: bool = False,
                 page_cache_bytes: int = 64 * 1024 * 1024,
                 nvme_queue_depth: int = 1024,
                 nvme_transfer_mode: str = "prp",
                 nvme_queue_priorities: Optional[dict] = None) -> None:
        if interface not in INTERFACES:
            raise ValueError(f"unknown interface {interface!r}; "
                             f"choose from {INTERFACES}")
        self.interface = interface
        if platform is None:
            platform = mobile_platform() if interface == "ufs" else pc_platform()
        self.platform = platform
        self.kernel_profile: KernelProfile = kernel_by_version(kernel)
        self.data_emulation = data_emulation

        # h-type storage schedules its device queue FIFO (Section III-B)
        if interface in ("sata", "ufs") and device.hil.arbitration != "fifo":
            from repro.ssd.config import HILConfig
            device = device.with_overrides(hil=HILConfig(arbitration="fifo"))

        self.sim = Simulator()
        self.cpu = HostCpu(self.sim, platform.n_cores, platform.frequency,
                           model=cpu_model or platform.cpu_model,
                           cpi_scale=platform.cpi_scale)
        self.memory = HostMemory(self.sim, platform.memory_size,
                                 platform.memory_bandwidth,
                                 platform.memory_latency_ns)
        self.bus = SystemBus(self.sim, platform.sysbus_bandwidth)
        self.ssd = SSD(self.sim, device, data_emulation=data_emulation)
        self._nvme_transfer_mode = nvme_transfer_mode
        self._nvme_queue_priorities = nvme_queue_priorities or {}
        self._wire_interface(nvme_queue_depth)
        self.blocklayer = BlockLayer(self.sim, self.cpu, self.kernel_profile,
                                     self.adapter)
        self.pagecache = PageCache(self.sim, self.memory, page_cache_bytes,
                                   data_emulation=data_emulation)
        self._syscall_mix = InstructionMix.typical(
            self.kernel_profile.syscall_submit_instr)
        self._writeback_running = False
        self.metrics = MetricsRegistry()
        self._register_metrics()

    # -- wiring ------------------------------------------------------------------

    def _wire_interface(self, nvme_queue_depth: int) -> None:
        sim = self.sim
        if self.interface == "nvme":
            from repro.interfaces.nvme.controller import NvmeController
            from repro.interfaces.nvme.host import NvmeDriver
            from repro.interfaces.nvme.structures import TransferMode
            self.link = PcieLink(sim, gen=3, lanes=4)
            self.dma = DmaEngine(sim, self.cpu, self.memory, self.bus, self.link)
            self.adapter = NvmeDriver(
                sim, self.memory, self.link,
                n_io_queues=self.platform.n_cores,
                queue_depth=nvme_queue_depth,
                transfer_mode=TransferMode(self._nvme_transfer_mode),
                total_sectors=self.ssd.config.logical_sectors)
            self.controller = NvmeController(
                sim, self.ssd, self.dma, self.adapter,
                queue_priorities=self._nvme_queue_priorities)
        elif self.interface == "sata":
            from repro.interfaces.sata.ahci import AhciHba
            from repro.interfaces.sata.controller import SataDeviceController
            self.link = SataLink(sim)
            self.dma = DmaEngine(sim, self.cpu, self.memory, self.bus, self.link)
            self.adapter = AhciHba(sim, self.memory, self.link)
            self.controller = SataDeviceController(sim, self.ssd, self.dma,
                                                   self.adapter)
        elif self.interface == "ufs":
            from repro.interfaces.ufs.utp import UtpEngine
            from repro.interfaces.ufs.controller import UfsDeviceController
            self.link = UfsLink(sim)
            self.dma = DmaEngine(sim, self.cpu, self.memory, self.bus, self.link)
            self.adapter = UtpEngine(sim, self.memory, self.link)
            self.controller = UfsDeviceController(sim, self.ssd, self.dma,
                                                  self.adapter)
        else:  # ocssd
            from repro.interfaces.ocssd.controller import OcssdController
            from repro.interfaces.ocssd.pblk import PblkDriver
            self.link = PcieLink(sim, gen=3, lanes=4)
            self.dma = DmaEngine(sim, self.cpu, self.memory, self.bus, self.link)
            self.controller = OcssdController(sim, self.ssd, self.dma)
            self.adapter = PblkDriver(sim, self.cpu, self.memory, self.link,
                                      self.controller,
                                      data_emulation=self.data_emulation)

    def _register_metrics(self) -> None:
        """Publish every layer's instruments into one named-metric tree.

        Values are read lazily at snapshot time, so registration costs
        nothing during simulation (see ``docs/OBSERVABILITY.md``).
        """
        reg = self.metrics
        self.cpu.register_metrics(reg)
        self.memory.register_metrics(reg)
        self.ssd.backend.register_metrics(reg)
        blk = reg.scoped("os.block")
        blk.register("submitted",
                     lambda: float(self.blocklayer.requests_submitted))
        blk.register("merged",
                     lambda: float(self.blocklayer.requests_merged))
        blk.register("dispatched",
                     lambda: float(self.blocklayer.requests_dispatched))
        blk.register("inflight", lambda: float(self.blocklayer.inflight))
        blk.register("queued", lambda: float(len(self.blocklayer.scheduler)))
        if self.interface == "nvme":
            nvme = reg.scoped("nvme")
            nvme.register("sq.depth", lambda: float(self.adapter.sq_depth()))
            nvme.register("outstanding",
                          lambda: float(self.adapter.outstanding()))
        dev = reg.scoped("ssd")
        dev.register("hil.fetched",
                     lambda: float(self.ssd.hil.commands_fetched))
        dev.register("hil.completed",
                     lambda: float(self.ssd.hil.commands_completed))
        dev.register("icl.hit_rate", self.ssd.icl.hit_rate)
        dev.register("icl.lines_flushed",
                     lambda: float(self.ssd.icl.lines_flushed))
        dev.register("icl.dirty_lines",
                     lambda: float(self.ssd.icl.dirty_line_count()))
        dev.register("ftl.gc_runs", lambda: float(self.ssd.ftl.gc_runs))
        dev.register("ftl.gc_active", lambda: float(self.ssd.ftl.gc_active))
        dev.register("ftl.gc_pages_migrated",
                     lambda: float(self.ssd.ftl.gc_pages_migrated))
        dev.register("ftl.write_amplification",
                     self.ssd.ftl.write_amplification)
        sim_scope = reg.scoped("sim")
        sim_scope.register("events_processed",
                           lambda: float(self.sim.events_processed))
        sim_scope.register("now_ns", lambda: float(self.sim.now))
        tracer = self.sim.tracer
        if getattr(tracer, "causal", False):
            # causal capture armed: fold the exact per-component latency
            # sums into the metric tree so telemetry epochs stream them
            causal_scope = reg.scoped("causal")
            causal_scope.register("requests",
                                  lambda: float(tracer.records))
            causal_scope.register("violations",
                                  lambda: float(tracer.violations))
            from repro.obs.causal import COMPONENTS

            def _component_gauge(component: str):
                """Bind one component's cumulative-ns gauge closure."""
                return lambda: float(tracer.component_total(component))
            for component in COMPONENTS:
                causal_scope.register(f"{component}.ns",
                                      _component_gauge(component))
        # telemetry (when armed) samples this registry every epoch
        probe = probe_of(self.sim)
        if probe is not None:
            probe.bind_registry(reg, label=f"{probe.label}-{self.interface}")

    # -- properties --------------------------------------------------------------

    @property
    def device_sectors(self) -> int:
        if self.interface == "ocssd":
            return self.adapter.logical_sectors
        return self.ssd.config.logical_sectors

    def set_host_frequency(self, frequency: int) -> None:
        """Host CPU frequency knob for the Fig 14 sweep."""
        self.cpu.set_frequency(frequency)

    # -- data helpers -----------------------------------------------------------

    @staticmethod
    def pattern_data(slba: int, nsectors: int, seed: int = 0) -> bytes:
        """Deterministic verifiable payload for a sector range."""
        chunks = []
        for sector in range(slba, slba + nsectors):
            tag = ((sector * 2654435761 + seed * 40503) & 0xFFFFFFFFFFFFFFFF)
            chunks.append(tag.to_bytes(8, "little") * 64)
        return b"".join(chunks)

    # -- the syscall layer -------------------------------------------------------

    def submit_io(self, req: IORequest, stream_id: int = 0,
                  core: Optional[int] = None, direct: bool = True):
        """Process generator: submit an I/O at user level.

        Returns the completion event (fires with read payload or None).
        Buffered (non-direct) I/O consults the page cache first.
        """
        # end-to-end span: syscall entry to user-visible completion; it
        # closes from the completion event's callback, registered only
        # when tracing is on so disabled runs stay event-identical
        tracer = self.sim.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin("io.submit", req.req_id, op=req.kind.name,
                                slba=req.slba, nbytes=req.nbytes)
            if req.nsid:
                # tenant blame label: waits blocked behind this request
                # are attributed to its namespace, not its request id
                tracer.annotate_track(req.req_id, f"ns:{req.nsid}")
        yield from self.cpu.execute(self._syscall_mix, core=core, kernel=True)
        if not direct:
            served = yield from self._buffered_path(req, stream_id, core)
            if served is not None:
                if span is not None:
                    tracer.end(span)
                return served
        event = yield from self.blocklayer.submit(req, stream_id=stream_id,
                                                  core=core)
        if not direct and req.kind.is_read:
            event.add_callback(
                lambda ev: self.pagecache.install_read(req.slba, req.nsectors,
                                                       ev.value))
        if span is not None:
            event.add_callback(lambda _ev: tracer.end(span))
        return event

    def _buffered_path(self, req: IORequest, stream_id: int,
                       core: Optional[int]):
        """Try to serve from the page cache; returns an event or None."""
        cache = self.pagecache
        if req.kind.is_read and cache.lookup_read(req.slba, req.nsectors):
            yield from self.memory.access(req.nbytes)
            done = self.sim.event()
            req.t_complete = self.sim.now
            done.succeed(cache.read_data(req.slba, req.nsectors))
            return done
        if req.kind.is_write and cache.write(req.slba, req.nsectors, req.data):
            yield from self.memory.access(req.nbytes, write=True)
            done = self.sim.event()
            req.t_complete = self.sim.now
            done.succeed(None)
            self._kick_writeback(stream_id)
            return done
        return None

    def _kick_writeback(self, stream_id: int) -> None:
        if self._writeback_running:
            return
        if len(self.pagecache.dirty_pages()) < self.pagecache.capacity_pages // 4:
            return
        self._writeback_running = True
        self.sim.process(self._writeback(stream_id))

    def _writeback(self, stream_id: int):
        cache = self.pagecache
        try:
            while len(cache.dirty_pages()) > cache.capacity_pages // 8:
                batch = cache.dirty_pages()[:16]
                events = []
                for index in batch:
                    payload = cache.page_payload(index) if self.data_emulation \
                        else None
                    wb_req = IORequest(IOKind.WRITE, index * 8, 8, data=payload)
                    event = yield from self.blocklayer.submit(
                        wb_req, stream_id=stream_id)
                    events.append(event)
                    cache.clean(index)
                for event in events:
                    yield event
                for index, page in cache.evict_candidates():
                    if not page.dirty:
                        cache.drop(index)
        finally:
            self._writeback_running = False

    # -- workload entry points ------------------------------------------------------

    def run_fio(self, job: FioJob) -> FioResult:
        return FioEngine(self).run(job)

    def run_multi_tenant(self, job):
        """Run a :class:`repro.core.tenants.MultiTenantJob` (NVMe only)."""
        from repro.core.tenants import MultiTenantEngine
        return MultiTenantEngine(self).run(job)

    def run_process(self, generator, until: Optional[int] = None):
        return self.sim.run_process(generator, until=until)

    def read(self, slba: int, nsectors: int, direct: bool = True):
        """Process generator: synchronous read convenience."""
        req = IORequest(IOKind.READ, slba, nsectors)
        req.t_submit = self.sim.now
        event = yield from self.submit_io(req, direct=direct)
        data = yield event
        return data

    def write(self, slba: int, nsectors: int, data: Optional[bytes] = None,
              direct: bool = True):
        req = IORequest(IOKind.WRITE, slba, nsectors, data=data)
        req.t_submit = self.sim.now
        event = yield from self.submit_io(req, direct=direct)
        yield event

    def trim(self, slba: int, nsectors: int):
        """Process generator: deallocate a range (NVMe DSM / ATA TRIM)."""
        req = IORequest(IOKind.TRIM, slba, nsectors)
        req.t_submit = self.sim.now
        event = yield from self.submit_io(req)
        yield event

    def precondition(self, fraction: float = 1.0) -> int:
        """Fill the device to steady state (instant, untimed)."""
        return self.ssd.precondition_sequential(fraction)
