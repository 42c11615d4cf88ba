"""Figures 8 & 9: Amber vs four real devices, bandwidth and latency vs
I/O depth, with per-device accuracy percentages.

Runs FIO at user level through the full system (the paper's methodology:
no trace replay) for each device preset and compares against the
digitized real-device curves.  Accuracy = 1 - |real - sim| / real,
averaged over the depth sweep.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.reference import REAL_DEVICES, accuracy, reference_at
from repro.experiments.common import (
    FULL_DEPTHS,
    QUICK_DEPTHS,
    build_system,
    run_pattern,
)
from repro.experiments.formatting import format_series, format_table
from repro.workloads.synthetic import PATTERN_RW


def run(quick: bool = True, devices=None) -> Dict:
    depths = QUICK_DEPTHS if quick else FULL_DEPTHS
    n_ios = 600 if quick else 2000
    devices = devices or list(REAL_DEVICES)
    results: Dict = {"depths": depths, "devices": {}}
    for device in devices:
        per_pattern: Dict = {}
        for pattern in PATTERN_RW:
            curve = {}
            for depth in depths:
                system = build_system(device)
                res = run_pattern(system, pattern, depth, total_ios=n_ios)
                real_bw = reference_at(device, pattern, depth)
                real_lat = reference_at(device, pattern, depth, "latency")
                curve[depth] = {
                    "bandwidth_mbps": res.bandwidth_mbps,
                    "latency_us": res.latency.mean_us(),
                    "real_bandwidth_mbps": real_bw,
                    "real_latency_us": real_lat,
                    "bandwidth_accuracy": accuracy(real_bw,
                                                   res.bandwidth_mbps),
                    "latency_accuracy": accuracy(real_lat,
                                                 res.latency.mean_us()),
                }
            per_pattern[pattern] = curve
        results["devices"][device] = per_pattern
    results["summary"] = _summarize(results)
    return results


def _summarize(results: Dict) -> Dict:
    summary: Dict = {}
    for device, per_pattern in results["devices"].items():
        bw_acc, lat_acc = [], []
        for curve in per_pattern.values():
            for point in curve.values():
                bw_acc.append(point["bandwidth_accuracy"])
                lat_acc.append(point["latency_accuracy"])
        summary[device] = {
            "bandwidth_accuracy": sum(bw_acc) / len(bw_acc),
            "latency_accuracy": sum(lat_acc) / len(lat_acc),
        }
    return summary


def render(results: Dict) -> str:
    blocks = []
    for device, per_pattern in results["devices"].items():
        for pattern, curve in per_pattern.items():
            series = {
                "amber": {d: round(v["bandwidth_mbps"]) for d, v in curve.items()},
                "real": {d: round(v["real_bandwidth_mbps"]) for d, v in curve.items()},
            }
            blocks.append(format_series(
                series, "depth", f"Fig 8 {device} {pattern} bandwidth MB/s"))
            lat = {
                "amber": {d: round(v["latency_us"], 1) for d, v in curve.items()},
                "real": {d: round(v["real_latency_us"], 1) for d, v in curve.items()},
            }
            blocks.append(format_series(
                lat, "depth", f"Fig 9 {device} {pattern} latency us"))
    rows = [[device,
             f"{s['bandwidth_accuracy'] * 100:.0f}%",
             f"{s['latency_accuracy'] * 100:.0f}%"]
            for device, s in results["summary"].items()]
    blocks.append(format_table(
        ["device", "bandwidth accuracy", "latency accuracy"], rows,
        "Validation accuracy summary (paper: 72-96% bw, 64-96% lat)"))
    return "\n\n".join(blocks)
