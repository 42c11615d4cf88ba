"""Figure 12: performance impact of the operating system.

Runs the five Table III enterprise workloads at user level on kernels
4.4 (CFQ) and 4.14 (refined BFQ), over both NVMe and SATA.  The paper
observes 4.4 underperforming 4.14 by ~63% (reads) / ~69% (writes) on
average: CFQ's shallow dispatch and heavier per-request path cannot
generate enough outstanding I/O to saturate an SSD.
"""

from __future__ import annotations

from typing import Dict

from repro.core import presets
from repro.core.system import FullSystem
from repro.experiments.formatting import format_table
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
from repro.workloads.runner import EnterpriseRunner

WORKLOAD_ORDER = ["24HR", "24HRS", "DAP", "CFS", "MSNFS"]
KERNELS = ["4.4", "4.14"]
INTERFACES = ["nvme", "sata"]


def run(quick: bool = True, interfaces=None, n_ios=None,
        concurrency=None, workloads=None) -> Dict:
    """``n_ios``/``concurrency``/``workloads`` shrink the sweep for the
    golden small configs; defaults reproduce the paper's panel."""
    n_ios = n_ios or (400 if quick else 1500)
    concurrency = concurrency or (8 if quick else 16)
    interfaces = interfaces or INTERFACES
    workloads = workloads or WORKLOAD_ORDER
    results: Dict = {"workloads": workloads, "data": {}}
    for interface in interfaces:
        device = (presets.intel750() if interface == "nvme"
                  else presets.samsung850pro())
        for kernel in KERNELS:
            for name in workloads:
                system = FullSystem(device=device, interface=interface,
                                    kernel=kernel)
                system.precondition()
                runner = EnterpriseRunner(system,
                                          ENTERPRISE_WORKLOADS[name],
                                          concurrency=concurrency)
                res = runner.run(total_ios=n_ios)
                results["data"][(interface, kernel, name)] = {
                    "read_mbps": res.read_bandwidth_mbps,
                    "write_mbps": res.write_bandwidth_mbps,
                    "total_mbps": res.bandwidth_mbps,
                }
    results["speedup_4_14"] = _speedups(results, interfaces)
    return results


def _speedups(results: Dict, interfaces) -> Dict[str, float]:
    """How much faster 4.14 is than 4.4, averaged over workloads."""
    ratios = {"read": [], "write": []}
    for interface in interfaces:
        for name in results["workloads"]:
            old = results["data"][(interface, "4.4", name)]
            new = results["data"][(interface, "4.14", name)]
            if old["read_mbps"] > 0:
                ratios["read"].append(new["read_mbps"] / old["read_mbps"])
            if old["write_mbps"] > 0:
                ratios["write"].append(new["write_mbps"] / old["write_mbps"])
    return {kind: (sum(vals) / len(vals) if vals else 0.0)
            for kind, vals in ratios.items()}


def render(results: Dict) -> str:
    rows = []
    for (interface, kernel, name), point in results["data"].items():
        rows.append([interface, kernel, name,
                     round(point["read_mbps"]),
                     round(point["write_mbps"])])
    table = format_table(
        ["interface", "kernel", "workload", "read MB/s", "write MB/s"],
        rows, "Fig 12: enterprise workloads on kernels 4.4 vs 4.14")
    speed = results["speedup_4_14"]
    return (f"{table}\n\n4.14 vs 4.4 speedup: "
            f"reads x{speed['read']:.2f}, writes x{speed['write']:.2f} "
            "(paper: 4.4 is worse by 63% / 69%)")
