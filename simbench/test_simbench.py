"""Smoke-sized checks of the benchmark itself: ``python -m pytest simbench``.

They cover what a timed run relies on: the traced run reproduces the
untraced one exactly, every active layer records calls (and none does on
the kernel-only workload), repeats agree, the pins catch a changed output,
the full-size workloads replay the older BENCH record, and the result line
carries exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(name: str, size: int, slices: int = 2) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], size=size,
                               slices=slices)


SMOKE = {
    "kernel_churn": smoke("kernel_churn", workloads.CHURN_WORKERS * 10, 1),
    "randread_nvme": smoke("randread_nvme", 120),
    "write_storm_gc": smoke("write_storm_gc", 600),
    "randrw_hot_cache": smoke("randrw_hot_cache", 400),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_reproduces_untraced_and_covers_active_layers(name):
    workload = SMOKE[name]
    seed = workloads.DEFAULT_SEED
    untraced = run.Measured(workload, seed)
    traced = run.Measured(workload, seed, clock=layers.LayerClock())
    assert traced.rep.outputs == untraced.rep.outputs
    assert traced.rep.counters == untraced.rep.counters
    assert untraced.rep.completed == untraced.rep.attempted
    assert run.check(workload, seed, [untraced], [traced], {}) == []
    calls = traced.clock.calls
    for layer in workload.active_layers:
        assert calls[layer] > 0, layer
    if not workload.active_layers:
        assert set(calls.values()) == {0}
    assert traced.rest_s > 0


def test_traced_self_time_partitions_wrapped_time():
    clock = layers.LayerClock()
    measured = run.Measured(SMOKE["randrw_hot_cache"], 7, clock=clock)
    total_self = sum(clock.self_s.values())
    assert total_self == pytest.approx(clock.wrapped_s(), rel=1e-9)
    assert all(v >= 0 for v in clock.self_s.values())
    assert measured.rep.counters["icl.hit_rate"] > 0


def test_held_out_seed_repeats_exactly_and_differs_from_default():
    workload = SMOKE["write_storm_gc"]
    first = run.Measured(workload, workloads.HELD_OUT_SEED)
    second = run.Measured(workload, workloads.HELD_OUT_SEED)
    default = run.Measured(workload, workloads.DEFAULT_SEED)
    assert first.rep.outputs == second.rep.outputs
    assert first.rep.outputs != default.rep.outputs


def test_check_reports_pin_mismatch_and_stale_pins():
    workload = SMOKE["kernel_churn"]
    seed = workloads.DEFAULT_SEED
    measured = run.Measured(workload, seed)
    outputs = dict(measured.rep.outputs)
    pins = {"default_seed": seed, "workloads": {workload.name: {
        "size": workload.size, "slices": workload.slices, "outputs": outputs}}}
    assert run.check(workload, seed, [measured], [], pins) == []
    pins["workloads"][workload.name]["outputs"] = dict(outputs, events=1)
    assert run.check(workload, seed, [measured], [], pins)
    # another seed is checked for repeat equality only
    assert run.check(workload, seed + 1, [measured], [], pins) == []
    pins["workloads"][workload.name]["size"] = workload.size + 1
    assert run.check(workload, seed, [measured], [], pins)


def test_pins_match_the_benchmark_sizes():
    pins = json.loads(run.PINS.read_text())
    assert pins["default_seed"] == workloads.DEFAULT_SEED
    assert pins["held_out_seed"] == workloads.HELD_OUT_SEED
    for name, workload in workloads.WORKLOADS.items():
        pinned = pins["workloads"][name]
        assert (pinned["size"], pinned["slices"]) == (workload.size,
                                                      workload.slices)


def _bench_record():
    path = ROOT / "BENCH_2026-08-07.json"
    if not path.exists():
        pytest.skip("no BENCH_2026-08-07.json in this checkout")
    return json.loads(path.read_text())["scenarios"]


def test_full_size_kernel_churn_replays_bench_record():
    record = _bench_record()["kernel_churn"]
    # the older scenario: 400 rounds per worker, every phase 0
    state = workloads.build_churn(400, [0] * workloads.CHURN_WORKERS)
    for step in state.steps:
        step()
    outputs = state.result().outputs
    assert (outputs["events"], outputs["sim_ns"]) == (record["events"],
                                                      record["sim_ns"])


@pytest.mark.parametrize("name", ["randread_nvme", "write_storm_gc"])
def test_full_size_fio_workloads_replay_bench_record(name):
    record = _bench_record()[name]
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workloads.DEFAULT_SEED, record["extra"]["n_ios"], 1)
    for step in state.steps:
        step()
    outputs = state.result().outputs
    assert (outputs["events"], outputs["sim_ns"]) == (record["events"],
                                                      record["sim_ns"])


def test_benchmark_json_matches_the_tables():
    config = json.loads(run.CONFIG.read_text())
    assert config["command"] == ["python3", "simbench/run.py"]
    assert config["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in config["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in config["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] \
        == run.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "kernel_churn",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[-2])["host"]
    assert host["trace_armed"] is bool(trace)
    assert host["cpu_count"] >= 1 and len(host["loadavg_after"]) == 3
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    config = json.loads(run.CONFIG.read_text())
    expected = config["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "kernel_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
