"""The assembled SSD: computation complex + storage complex + firmware.

This is the device an interface controller (SATA/UFS/NVMe/OCSSD) talks
to.  It also offers a standalone trace-replay entry point used by unit
tests and the simulator-comparison experiments, where no host model is
attached.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.iorequest import IOKind
from repro.common.units import SEC
from repro.sim import Simulator
from repro.ssd.computation.cores import CpuComplex
from repro.ssd.computation.dram import InternalDram
from repro.ssd.config import SSDConfig
from repro.ssd.content import ContentStore
from repro.ssd.firmware.fil import FlashInterfaceLayer
from repro.ssd.firmware.ftl.ftl import FlashTranslationLayer
from repro.ssd.firmware.ftl.mapping import UNMAPPED
from repro.ssd.firmware.hil import HostInterfaceLayer
from repro.ssd.firmware.icl import InternalCacheLayer
from repro.ssd.firmware.requests import DeviceCommand
from repro.ssd.storage.array import FlashArray
from repro.ssd.storage.backend import FlashBackend
from repro.ssd.storage.power import NandPowerMeter


class SSD:
    """A complete SSD with every resource modeled (Figure 5a)."""

    def __init__(self, sim: Simulator, config: SSDConfig,
                 data_emulation: bool = False) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.data_emulation = data_emulation

        # storage complex
        self.array = FlashArray(config.geometry)
        self.nand_power = NandPowerMeter(sim, config.nand_power, config.geometry)
        self.backend = FlashBackend(
            sim, config, self.nand_power,
            erase_counts=lambda unit, block:
            self.array.block(unit, block).erase_count)
        # computation complex
        self.cores = CpuComplex(sim, config.cores)
        self.dram = InternalDram(sim, config.dram)
        # firmware stack (bottom-up)
        self.content = ContentStore(data_emulation, config.geometry.page_size)
        self.fil = FlashInterfaceLayer(sim, config, self.cores, self.backend)
        self.ftl = FlashTranslationLayer(sim, config, self.cores, self.dram,
                                         self.fil, self.array, self.content)
        self.icl = InternalCacheLayer(sim, config, self.cores, self.dram,
                                      self.ftl, data_emulation)
        self.hil = HostInterfaceLayer(sim, config, self.cores, self.icl)

    # -- command interface (used by device controllers) ----------------------

    def submit(self, cmd: DeviceCommand):
        """Enqueue a command; returns the completion event."""
        if cmd.done_event is None:
            cmd.done_event = self.sim.event()
        self._check_bounds(cmd)
        self.hil.submit(cmd)
        return cmd.done_event

    def _check_bounds(self, cmd: DeviceCommand) -> None:
        if cmd.kind in (IOKind.READ, IOKind.WRITE, IOKind.TRIM):
            if cmd.slba < 0 or cmd.slba + cmd.nsectors > self.config.logical_sectors:
                raise ValueError(
                    f"LBA range [{cmd.slba}, {cmd.slba + cmd.nsectors}) exceeds "
                    f"device capacity ({self.config.logical_sectors} sectors)")

    # -- standalone convenience (no host attached) -----------------------------

    def read(self, slba: int, nsectors: int, queue_id: int = 0):
        """Process generator: issue a read and wait for completion."""
        cmd = DeviceCommand(IOKind.READ, slba, nsectors, queue_id=queue_id)
        done = self.submit(cmd)
        data = yield done
        return data

    def write(self, slba: int, nsectors: int, data: Optional[bytes] = None,
              queue_id: int = 0):
        cmd = DeviceCommand(IOKind.WRITE, slba, nsectors, queue_id=queue_id,
                            data=data)
        done = self.submit(cmd)
        yield done

    def flush(self):
        cmd = DeviceCommand(IOKind.FLUSH, 0, 0)
        done = self.submit(cmd)
        yield done

    def trim(self, slba: int, nsectors: int):
        """Process generator: deallocate a sector range (TRIM)."""
        cmd = DeviceCommand(IOKind.TRIM, slba, nsectors)
        done = self.submit(cmd)
        yield done

    # -- state preparation ---------------------------------------------------

    def precondition_sequential(self, fraction: float = 1.0) -> int:
        """Instantly fill a fresh device with sequential data (STEADY-STATE prep).

        The paper preconditions every validation run by sequentially
        writing the whole target space; doing that through the timed path
        would simulate minutes of wall-clock writes, so this sets the
        state that writing the first ``fraction`` of the lines page by
        page through the allocator would leave.  Returns the number of
        pages placed.  A device that was programmed, erased or mapped
        raises.  On a fresh one the fill is closed-form: each parallel
        unit serves one (line group, slot), so the ``i``-th line of that
        group lands on ``ppn = unit * pages_per_unit + i``, and each unit
        takes one slice write into ``l2p`` and one into ``p2l``.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.config.ftl.mapping != "page":
            raise ValueError("preconditioning supports page mapping only")
        array, allocator, mapping = (self.array, self.ftl.allocator,
                                     self.ftl.mapping)
        # l2p.max(), not mapped_count: no temporary as large as the table
        if (array.total_programs or array.total_erases
                or mapping.l2p.max() != UNMAPPED):
            raise RuntimeError("preconditioning needs a fresh device")
        slots = allocator.slots_per_line
        n_lines = int(self.config.logical_pages * fraction) // slots
        for group, lines in allocator.group_lines(n_lines):
            for slot, unit in enumerate(allocator.group_units(group)):
                allocator.fill_unit(unit, len(lines), self.sim.now)
                mapping.bind_run(lines * slots + slot,
                                 unit * array.mapper.pages_per_unit)
        return n_lines * slots

    # -- reports ----------------------------------------------------------------

    def power_report(self) -> Dict[str, float]:
        """Average power per component in watts (Fig 13b breakdown)."""
        return {
            "cpu": self.cores.average_power(),
            "dram": self.dram.average_power(),
            "nand": self.nand_power.average_power(),
            "total": (self.cores.average_power() + self.dram.average_power()
                      + self.nand_power.average_power()),
        }

    def instruction_report(self) -> Dict[str, float]:
        """Instruction counts by class (Fig 13c breakdown)."""
        stats = self.cores.instruction_stats()
        report: Dict[str, float] = dict(stats.counts)
        report["total"] = stats.total
        return report

    def smart_report(self) -> Dict[str, float]:
        """SMART-style health attributes derived from media state."""
        counts = self.array.erase_counts()
        total_blocks = len(counts)
        # endurance proxy: MLC ~3K, TLC ~1K program/erase cycles
        rated_cycles = {1: 30_000, 2: 3_000, 3: 1_000}[
            self.config.timing.bits_per_cell]
        avg_erase = sum(counts) / total_blocks if total_blocks else 0.0
        return {
            "average_erase_count": avg_erase,
            "max_erase_count": max(counts) if counts else 0,
            "wear_spread": self.array.wear_spread(),
            "percentage_used": min(100.0, 100.0 * avg_erase / rated_cycles),
            "media_writes_pages": self.ftl.host_pages_written
            + self.ftl.gc_pages_migrated,
            "host_writes_pages": self.ftl.host_pages_written,
            "trimmed_pages": self.ftl.trimmed_pages,
            "retired_blocks": self.ftl.retired_blocks,
            "read_retries": self.backend.read_retries,
            "power_on_seconds": self.sim.now / SEC,
        }

    def stats_report(self) -> Dict[str, float]:
        elapsed_s = self.sim.now / SEC
        return {
            "elapsed_s": elapsed_s,
            "commands_completed": self.hil.commands_completed,
            "cache_hit_rate": self.icl.hit_rate(),
            "lines_flushed": self.icl.lines_flushed,
            "readaheads": self.icl.readaheads,
            "rmw_fetches": self.icl.rmw_fetches,
            "write_amplification": self.ftl.write_amplification(),
            "gc_runs": self.ftl.gc_runs,
            "flash_reads": self.backend.reads_issued,
            "flash_programs": self.backend.programs_issued,
            "flash_erases": self.backend.erases_issued,
            "wear_spread": self.array.wear_spread(),
        }
