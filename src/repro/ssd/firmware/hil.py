"""Host Interface Layer: device-side queue arbitration and request split.

The HIL fetches commands from the device-level queues according to the
interface's discipline — FIFO for h-type storage (SATA/UFS), round-robin
or weighted round-robin across submission queues for s-type (NVMe) — then
splits each command into superpage-aligned line requests and drives them
through the ICL.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind
from repro.sim import AllOf
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.computation.cores import CpuComplex
from repro.ssd.config import SSDConfig
from repro.ssd.firmware.arbiter import make_arbiter
from repro.ssd.firmware.icl import InternalCacheLayer
from repro.ssd.firmware.requests import DeviceCommand, split_command


class HostInterfaceLayer:
    def __init__(self, sim, config: SSDConfig, cores: CpuComplex,
                 icl: InternalCacheLayer) -> None:
        self.sim = sim
        self.config = config
        self.cores = cores
        self.icl = icl
        self._queues: "OrderedDict[int, Deque[DeviceCommand]]" = OrderedDict()
        self._pending = 0
        self._wakeup = None
        self._slot_wakeup = None
        self._fetch_mix = InstructionMix.typical(config.costs.hil_fetch)
        self._complete_mix = InstructionMix.typical(config.costs.hil_complete)
        self.arbiter = make_arbiter(config.hil)
        self.commands_fetched = 0
        self.commands_completed = 0
        self.in_flight = 0
        sim.process(self._fetch_loop())

    # -- submission (called by the device controller) -----------------------

    def submit(self, cmd: DeviceCommand) -> None:
        if cmd.done_event is None:
            cmd.done_event = self.sim.event()
        queue = self._queues.get(cmd.queue_id)
        if queue is None:
            queue = deque()
            self._queues[cmd.queue_id] = queue
        queue.append(cmd)
        self._pending += 1
        if self._wakeup is not None:
            event, self._wakeup = self._wakeup, None
            event.succeed()

    def queue_depth(self) -> int:
        return self._pending

    # -- arbitration ----------------------------------------------------------

    def _next_command(self) -> Optional[DeviceCommand]:
        if self._pending == 0:
            return None
        queue_ids = [qid for qid, q in self._queues.items() if q]
        if not queue_ids:
            return None
        chosen = self.arbiter.grant(self._queues, queue_ids)
        cmd = self._queues[chosen].popleft()
        self._pending -= 1
        return cmd

    # -- the fetch/serve pipeline ------------------------------------------------

    def _fetch_loop(self):
        while True:
            limit = self.config.hil.inflight_limit
            if limit and self.in_flight >= limit:
                self._slot_wakeup = self.sim.event()
                yield self._slot_wakeup
                continue
            cmd = self._next_command()
            if cmd is None:
                self._wakeup = self.sim.event()
                yield self._wakeup
                continue
            cmd.t_fetched = self.sim.now
            self.commands_fetched += 1
            self.in_flight += 1
            # the fetch cost itself serializes on the HIL core, pacing the
            # rate at which the device can start new commands
            yield from self.cores.execute("hil", self._fetch_mix)
            self.sim.process(self._serve(cmd))

    def _serve(self, cmd: DeviceCommand):
        tracer = self.sim.tracer
        try:
            with (tracer.span("hil.serve", cmd.track, op=cmd.kind.name,
                              sectors=cmd.nsectors)
                  if tracer.enabled else NULL_SPAN_CONTEXT):
                if cmd.kind == IOKind.FLUSH:
                    yield from self.icl.flush_all()
                    result = None
                elif cmd.kind == IOKind.TRIM:
                    lines = split_command(cmd, self.config.geometry.page_size,
                                          self.config.superpage_pages)
                    for line_req in lines:
                        yield from self.icl.trim(line_req)
                    result = None
                else:
                    result = yield from self._serve_rw(cmd)
                yield from self.cores.execute("hil", self._complete_mix)
            self.commands_completed += 1
            cmd.done_event.succeed(result)
        finally:
            self.in_flight -= 1
            if self._slot_wakeup is not None:
                event, self._slot_wakeup = self._slot_wakeup, None
                event.succeed()

    def _serve_rw(self, cmd: DeviceCommand) -> Optional[bytes]:
        lines = split_command(cmd, self.config.geometry.page_size,
                              self.config.superpage_pages)
        if cmd.kind.is_write:
            procs = [self.sim.process(self.icl.write(req)) for req in lines]
            yield AllOf(self.sim, procs)
            return None
        procs = [self.sim.process(self.icl.read(req)) for req in lines]
        done = yield AllOf(self.sim, procs)
        if not self.icl.data_emulation:
            return None
        chunks: List[bytes] = []
        for req, result in zip(lines, done):
            for slot in sorted(req.page_sectors):
                sec_off, sec_n = req.page_sectors[slot]
                piece = result.get(slot)
                chunks.append(piece if piece is not None else bytes(sec_n * 512))
        return b"".join(chunks)
