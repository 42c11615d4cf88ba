"""Figure 16: simulation speed comparison.

Replays the same workload (4 KB random reads, depth 16) through each
standalone baseline simulator, Amber's standalone SSD model, and the
Amber full system, measuring wall-clock seconds and simulation events.
The paper's point: Amber's full-system detail costs more than standalone
replay (gem5+Amber ~ 20K s in the original) but is comparable to MQSim
among the detailed simulators.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.baselines.models import (
    FlashSimModel,
    MQSimModel,
    SSDExtensionModel,
    SSDSimModel,
)
from repro.baselines.replay import ClosedLoopReplayer
from repro.common.iorequest import IOKind
from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.experiments.formatting import format_table
from repro.sim import Simulator
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand


def _amber_standalone(n_ios: int) -> Dict:
    sim = Simulator()
    ssd = SSD(sim, presets.intel750())
    ssd.precondition_sequential()
    import random
    rng = random.Random(3)
    region = ssd.config.logical_sectors - 8
    state = {"done": 0}

    def slot():
        while state["done"] < n_ios:
            slba = rng.randrange(region // 8) * 8
            yield ssd.submit(DeviceCommand(IOKind.READ, slba, 8))
            state["done"] += 1

    wall0 = time.perf_counter()  # simlint: disable=SIM101, SIM110 -- Fig 16 measures simulation speed itself; wall_seconds is a golden VOLATILE_KEY
    procs = [sim.process(slot()) for _ in range(16)]

    def waiter():
        for proc in procs:
            yield proc

    sim.run_process(waiter())
    return {"wall_seconds": time.perf_counter() - wall0,  # simlint: disable=SIM101, SIM110 -- Fig 16 measures simulation speed itself; wall_seconds is a golden VOLATILE_KEY
            "events": sim.events_processed}


def _amber_fullsystem(n_ios: int) -> Dict:
    system = FullSystem(device=presets.intel750(), interface="nvme")
    system.precondition()
    wall0 = time.perf_counter()  # simlint: disable=SIM101, SIM110 -- Fig 16 measures simulation speed itself; wall_seconds is a golden VOLATILE_KEY
    system.run_fio(FioJob(rw="randread", bs=4096, iodepth=16,
                          total_ios=n_ios))
    return {"wall_seconds": time.perf_counter() - wall0,  # simlint: disable=SIM101, SIM110 -- Fig 16 measures simulation speed itself; wall_seconds is a golden VOLATILE_KEY
            "events": system.sim.events_processed}


def run(quick: bool = True, n_ios=None) -> Dict:
    """``n_ios`` shrinks the workload for the golden small configs."""
    n_ios = n_ios or (500 if quick else 3000)
    config = presets.intel750()
    results: Dict = {"n_ios": n_ios, "simulators": {}}
    for name, model_cls in (("flashsim", FlashSimModel),
                            ("ssdsim", SSDSimModel),
                            ("ssd-extension", SSDExtensionModel),
                            ("mqsim", MQSimModel)):
        replayer = ClosedLoopReplayer(model_cls(config))
        res = replayer.run("randread", bs=4096, iodepth=16, n_ios=n_ios)
        results["simulators"][name] = {
            "wall_seconds": res.wall_seconds,
            "events": res.events_processed,
            "mode": "standalone trace replay",
        }
    standalone = _amber_standalone(n_ios)
    standalone["mode"] = "standalone (all SSD resources)"
    results["simulators"]["amber-standalone"] = standalone  # simlint: disable=SIM210 -- Fig 16's deliverable IS wall time; wall_seconds is a golden VOLATILE_KEY
    full = _amber_fullsystem(n_ios)
    full["mode"] = "full system (host + OS + interface + SSD)"
    results["simulators"]["amber-fullsystem"] = full  # simlint: disable=SIM210 -- Fig 16's deliverable IS wall time; wall_seconds is a golden VOLATILE_KEY
    return results


def render(results: Dict) -> str:
    rows = [[name, v["mode"], f"{v['wall_seconds']:.3f}", v["events"]]
            for name, v in results["simulators"].items()]
    return format_table(["simulator", "mode", "wall s", "events"], rows,
                        f"Fig 16: simulation speed ({results['n_ios']} I/Os)")
