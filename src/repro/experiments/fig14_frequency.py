"""Figure 14: host CPU frequency sweep on the fastest SSD (Z-SSD).

Measures 4 KB random-read bandwidth at three levels as the host clock
scales 2 -> 8 GHz:

* **device-level** — a closed loop directly against the SSD model (no
  host, no interface): the raw capability of the storage complex;
* **interface-level** — through the NVMe protocol and DMA engine but
  with a functional (atomic) host CPU, i.e. protocol management cost
  without kernel execution;
* **user-level** — the full stack: FIO, syscalls, block layer, driver.

The paper: a 2 GHz kernel slashes device-level performance by 41%;
8 GHz still loses 29%.
"""

from __future__ import annotations

from typing import Dict

from repro.common.units import GHZ, SEC
from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.experiments.formatting import format_series
from repro.host.cpu import CpuModel
from repro.host.platform import pc_platform
from repro.sim import Simulator
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand
from repro.common.iorequest import IOKind

FREQUENCIES = [2, 4, 6, 8]   # GHz


def _device_level(n_ios: int, depth: int = 32, bs: int = 4096) -> float:
    """Closed loop straight at SSD.submit — no host in the way."""
    sim = Simulator()
    ssd = SSD(sim, presets.zssd())
    ssd.precondition_sequential()
    import random
    rng = random.Random(17)
    sectors = bs // 512
    region = ssd.config.logical_sectors - sectors
    state = {"done": 0, "bytes": 0}

    def slot():
        while state["done"] < n_ios:
            slba = rng.randrange(region // sectors) * sectors
            cmd = DeviceCommand(IOKind.READ, slba, sectors)
            yield ssd.submit(cmd)
            state["done"] += 1
            state["bytes"] += sectors * 512

    procs = [sim.process(slot()) for _ in range(depth)]

    def waiter():
        for proc in procs:
            yield proc

    sim.run_process(waiter())
    return (state["bytes"] / (1 << 20)) / (sim.now / SEC)


def _system_level(freq_ghz: int, n_ios: int, functional_cpu: bool,
                  depth: int = 32, bs: int = 4096) -> float:
    platform = pc_platform(frequency=int(freq_ghz * GHZ))
    system = FullSystem(
        device=presets.zssd(), interface="nvme", platform=platform,
        cpu_model=CpuModel.ATOMIC if functional_cpu else None)
    system.precondition()
    res = system.run_fio(FioJob(rw="randread", bs=bs, iodepth=depth,
                                total_ios=n_ios))
    return res.bandwidth_mbps


def run(quick: bool = True, n_ios=None, freqs=None) -> Dict:
    """``n_ios``/``freqs`` shrink the sweep for the golden small configs."""
    n_ios = n_ios or (300 if quick else 1200)
    freqs = freqs or ([2, 8] if quick else FREQUENCIES)
    device = _device_level(n_ios)
    interface = _system_level(4, n_ios, functional_cpu=True)
    user = {f: _system_level(f, n_ios, functional_cpu=False) for f in freqs}
    results = {
        "frequencies_ghz": freqs,
        "device_level_mbps": device,
        "interface_level_mbps": interface,
        "user_level_mbps": user,
        "degradation": {f: 1.0 - user[f] / device for f in freqs},
    }
    return results


def render(results: Dict) -> str:
    series = {
        "device": {f: round(results["device_level_mbps"])
                   for f in results["frequencies_ghz"]},
        "interface": {f: round(results["interface_level_mbps"])
                      for f in results["frequencies_ghz"]},
        "user": {f: round(v) for f, v in results["user_level_mbps"].items()},
    }
    table = format_series(series, "GHz",
                          "Fig 14: bandwidth by level vs host frequency")
    degr = ", ".join(f"{f}GHz: {d * 100:.0f}%"
                     for f, d in results["degradation"].items())
    return (f"{table}\n\nuser-level loss vs device-level: {degr} "
            "(paper: 41% at 2GHz, 29% at 8GHz)")
