"""Simulator-speed benchmark: one workload per process, every metric by name.

Run from the repository root::

    python3 simbench/run.py --workload randread_nvme --seed 1234 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (host time per layer from ``layers.py``, simulated-time
counters, the tracing overhead).  Every repeat builds a fresh system from
the seed; the outputs of all repeats must agree, must match ``pins.json``
for the default seed, and the traced repeats must reproduce the untraced
ones exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host context.

``python3 simbench/run.py --write`` re-pins the default-seed outputs into
``simbench/pins.json`` and regenerates ``BENCHMARK.json`` from the tables
below.  See ``simbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layers
from reference import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
CONFIG = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20
#: fewest timed repeats per run (and untraced/traced pairs with --trace 1)
MIN_REPS = 3
#: fewest set-ups per run; cheap set-ups are repeated until there are this many
MIN_SETUPS = 9

#: (name, unit, better, bound): measured with tracing off
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.2),
    ("events_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: simulated-time counters every fio repeat reports (workloads.Rep.counters)
COUNTERS = [
    ("hostos.merged", "count", "higher"),
    ("hil.commands", "count", "lower"),
    ("icl.hit_rate", "ratio", "higher"),
    ("icl.lines_flushed", "count", "lower"),
    ("icl.readaheads", "count", "lower"),
    ("ftl.gc_runs", "count", "lower"),
    ("ftl.gc_pages_migrated", "count", "lower"),
    ("ftl.write_amplification", "ratio", "lower"),
    ("storage.reads", "count", "lower"),
    ("storage.programs", "count", "lower"),
    ("storage.erases", "count", "lower"),
    ("storage.channel_util", "ratio", "higher"),
    ("storage.die_util", "ratio", "higher"),
    ("stage.kernel_submit_ns", "ns", "lower"),
    ("stage.interface_ns", "ns", "lower"),
    ("stage.device_ns", "ns", "lower"),
    ("stage.completion_ns", "ns", "lower"),
    ("sim.p50_us", "us", "lower"),
    ("sim.p99_us", "us", "lower"),
]


def per_layer_metrics():
    """(name, unit, better) of every metric ``--trace 1`` prints."""
    rows = []
    for layer in layers.LAYERS:
        rows += [(f"{layer}.calls", "count", "lower"),
                 (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.ns_per_call", "ns", "lower")]
    rows += [("sim.rest_s", "s", "lower"),
             ("sim.events", "count", "lower"),
             ("trace.overhead_x", "x", "lower"),
             ("error_rate", "ratio", "lower")]
    return rows + COUNTERS


def host_context(trace: bool) -> dict:
    return {"cpu_count": os.cpu_count(), "loadavg_before": os.getloadavg(),
            "python": platform.python_version(), "trace_armed": trace}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measured:
    """One repeat: set-up and per-step host seconds plus what it produced.

    Times are in host seconds at the reference speed (``reference.py``);
    ``raw_step_s`` keeps the unscaled ones.
    """

    def __init__(self, workload, seed: int, clock=None) -> None:
        hook = None if clock is None else (lambda s: layers.install(s, clock))
        gc.collect()
        watch = Stopwatch()
        state, _, self.setup_s = watch.time(
            lambda: workload.setup(seed, workload.size, workload.slices,
                                   hook=hook))
        wrapped0 = clock.wrapped_s() if clock is not None else 0.0
        self.step_s, self.raw_step_s = [], []
        for step in state.steps:
            _, raw, scaled = watch.time(step)
            self.raw_step_s.append(raw)
            self.step_s.append(scaled)
        self.rep = state.result()
        self.speed = watch.speed()
        self.clock = clock
        if clock is not None:
            wrapped = clock.wrapped_s() - wrapped0
            self.rest_s = (sum(self.raw_step_s) - wrapped) * self.speed


def run_seconds(measured: list, raw: bool = False) -> float:
    """Timed-region seconds of one repeat: the sum of per-step medians.

    Every step does the same deterministic work in each repeat, so the
    median of a step across repeats keeps a short slow spell of the host
    out; the reference scaling takes out the long ones.
    """
    return sum(statistics.median(steps) for steps in
               zip(*(m.raw_step_s if raw else m.step_s for m in measured)))


def time_setups(workload, seed: int, count: int) -> list:
    times = []
    for _ in range(count):
        gc.collect()
        watch = Stopwatch()
        times.append(watch.time(
            lambda: workload.setup(seed, workload.size, workload.slices))[2])
    return times


def check(workload, seed: int, untraced: list, traced: list, pins: dict) -> list:
    """Every correctness problem of a run, as text; empty when correct."""
    problems = []
    first = untraced[0].rep.outputs
    for index, m in enumerate(untraced + traced):
        kind = "traced" if m.clock is not None else "untraced"
        if m.rep.outputs != first:
            problems.append(f"{kind} repeat {index} outputs {m.rep.outputs} "
                            f"differ from repeat 0 {first}")
    pinned = pins.get("workloads", {}).get(workload.name)
    if seed == pins.get("default_seed") and pinned is not None:
        if (pinned["size"], pinned["slices"]) != (workload.size, workload.slices):
            problems.append(f"pins were made for {pinned['size']} operations "
                            f"in {pinned['slices']} slices, the workload runs "
                            f"{workload.size} in {workload.slices}")
        elif first != pinned["outputs"]:
            problems.append(f"outputs {first} differ from pins {pinned['outputs']}")
    if traced:
        calls = traced[0].clock.calls
        for m in traced[1:]:
            if m.clock.calls != calls:
                problems.append("traced repeats disagree on per-layer calls")
        for layer, n in calls.items():
            active = layer in workload.active_layers
            if active and n == 0:
                problems.append(f"active layer {layer} recorded no calls")
            if not workload.active_layers and n != 0:
                problems.append(f"layer {layer} recorded {n} calls on a "
                                "kernel-only workload")
    return problems


def end_to_end(untraced: list, setups: list) -> dict:
    seconds = run_seconds(untraced)
    rep = untraced[0].rep
    return {"ops_per_s": rep.completed / seconds,
            "events_per_s": rep.outputs["events"] / seconds,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(untraced: list, traced: list, error_rate: float) -> dict:
    out = {}
    calls = traced[0].clock.calls
    for layer in layers.LAYERS:
        self_s = statistics.median(m.clock.self_s[layer] * m.speed
                                   for m in traced)
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.ns_per_call"] = (self_s * 1e9 / calls[layer]
                                       if calls[layer] else 0.0)
    out["sim.rest_s"] = statistics.median(m.rest_s for m in traced)
    out["sim.events"] = untraced[0].rep.outputs["events"]
    out["trace.overhead_x"] = run_seconds(traced) / run_seconds(untraced)
    out["error_rate"] = error_rate
    counters = untraced[0].rep.counters
    for name, _unit, _better in COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def run(workload, seed: int, seconds: float, trace: bool, pins: dict):
    """Measure one workload; returns the result line and the run's context."""
    # warm-up: lazy imports and first-call costs stay out of the timings
    state = workload.setup(seed, workload.size // 20, workload.slices)
    for step in state.steps:
        step()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while len(untraced) < MIN_REPS or perf_counter() < deadline:
        untraced.append(Measured(workload, seed))
        if trace:
            traced.append(Measured(workload, seed, clock=layers.LayerClock()))
    setups = [m.setup_s for m in untraced]
    if not trace:
        setups += time_setups(workload, seed, MIN_SETUPS - len(setups))

    problems = check(workload, seed, untraced, traced, pins)
    for problem in problems:
        print(f"simbench: {workload.name}: {problem}", file=sys.stderr)
    attempted = sum(m.rep.attempted for m in untraced + traced)
    if problems:
        failed = attempted
    else:
        failed = sum(m.rep.attempted - m.rep.completed for m in untraced + traced)
    if trace:
        values = per_layer(untraced, traced, failed / attempted)
        units = {name: unit for name, unit, _ in
                 per_layer_metrics()}
    else:
        values = end_to_end(untraced, setups)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    context = {"repeats": len(untraced), "setups": len(setups),
               "host_speed": statistics.median(m.speed for m in untraced),
               "unscaled_ops_per_s": (untraced[0].rep.completed
                                      / run_seconds(untraced, raw=True))}
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}, context


def write_config_and_pins() -> None:
    """Re-pin the default-seed outputs and regenerate BENCHMARK.json."""
    import workloads
    pins = {"default_seed": workloads.DEFAULT_SEED,
            "held_out_seed": workloads.HELD_OUT_SEED, "workloads": {}}
    for w in workloads.WORKLOADS.values():
        state = w.setup(workloads.DEFAULT_SEED, w.size, w.slices)
        for step in state.steps:
            step()
        pins["workloads"][w.name] = {"size": w.size, "slices": w.slices,
                                     "outputs": state.result().outputs}
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    config = {
        "command": ["python3", "simbench/run.py"],
        "paths": ["simbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }
    CONFIG.write_text(json.dumps(config, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true",
                        help="re-pin outputs and regenerate BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.write:
        write_config_and_pins()
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    pins = json.loads(PINS.read_text())
    context = host_context(bool(args.trace))
    result, measured = run(workloads.WORKLOADS[args.workload], seed,
                           args.seconds, bool(args.trace), pins)
    context.update(measured, loadavg_after=os.getloadavg())
    print(json.dumps({"host": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
