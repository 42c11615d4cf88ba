"""The wall-clock self-profiler (``repro.obs.profiler``): zero cost and
zero presence when off, bit-identical simulation when on, >= 95% of
measured wall time attributed across the pinned perf scenarios, and the
Markdown/Chrome-trace exports the CI artifact is built from
(``docs/OBSERVABILITY.md``, "Live runs & profiling")."""

import json

import pytest

from repro.experiments.perf_scenarios import SCENARIOS
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import (
    WallProfiler,
    attribution,
    attribution_markdown,
    chrome_profile_trace,
    disable_profiling,
    enable_profiling,
    hottest_layers,
    profilers,
    profiling_enabled,
    write_profile,
    write_profile_trace,
)
from repro.sim import Simulator, observe


@pytest.fixture(autouse=True)
def _profiling_off():
    """Every test starts and ends with the switch off."""
    disable_profiling()
    yield
    disable_profiling()


def _pingpong(sim, rounds=50):
    """A deterministic little workload for equivalence checks."""
    def proc():
        total = 0
        for _ in range(rounds):
            yield sim.timeout(7)
            total += sim.now
        return total
    return proc()


# -- the switch ---------------------------------------------------------------

class TestSwitch:
    def test_off_by_default(self):
        assert not profiling_enabled()
        Simulator()
        assert profilers() == []

    def test_enable_arms_new_simulators(self):
        enable_profiling()
        assert profiling_enabled()
        sim = Simulator()
        assert len(profilers()) == 1
        assert profilers()[0] in sim.observers

    def test_disable_drops_collected_profilers(self):
        enable_profiling()
        Simulator()
        disable_profiling()
        assert not profiling_enabled()
        assert profilers() == []
        Simulator()
        assert profilers() == []

    def test_enable_installs_one_construction_hook(self):
        before = len(observe.hooks())
        enable_profiling()
        enable_profiling()
        assert len(observe.hooks()) == before + 1
        Simulator()
        assert len(profilers()) == 1

    def test_max_slices_must_be_positive(self):
        with pytest.raises(ValueError, match="max_slices"):
            enable_profiling(max_slices=0)


# -- behavioural equivalence --------------------------------------------------

class TestBitIdentical:
    def test_run_process_identical_on_and_off(self):
        plain = Simulator()
        value_plain = plain.run_process(_pingpong(plain))
        enable_profiling()
        profiled = Simulator()
        value_profiled = profiled.run_process(_pingpong(profiled))
        assert value_profiled == value_plain
        assert profiled.now == plain.now
        assert profiled.events_processed == plain.events_processed

    def test_run_identical_on_and_off(self):
        def drive(sim):
            fired = []
            for index in range(40):
                sim.schedule(index * 3, fired.append, index)
            sim.run(until=60)
            sim.run()
            return fired

        plain = Simulator()
        fired_plain = drive(plain)
        enable_profiling()
        profiled = Simulator()
        fired_profiled = drive(profiled)
        assert fired_profiled == fired_plain
        assert profiled.now == plain.now
        assert profiled.events_processed == plain.events_processed

    def test_run_until_deadline_semantics_match(self):
        enable_profiling()
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run(until=50)
        assert sim.now == 50 and sim.events_processed == 0
        with pytest.raises(ValueError, match="past"):
            sim.run(until=10)

    def test_run_process_failure_paths_match(self):
        enable_profiling()
        sim = Simulator()

        def boom():
            yield sim.timeout(5)
            raise RuntimeError("kaput")

        with pytest.raises(RuntimeError, match="kaput"):
            sim.run_process(boom())

        stalled = Simulator()

        def forever():
            yield stalled.event()       # never succeeds

        with pytest.raises(RuntimeError, match="did not complete"):
            stalled.run_process(forever())

    def test_run_process_deadline_advances_clock(self):
        enable_profiling()
        sim = Simulator()

        def patient():
            yield sim.timeout(1000)

        with pytest.raises(RuntimeError, match="deadline"):
            sim.run_process(patient(), until=100)
        assert sim.now == 100

    def test_bench_scenario_facts_identical(self):
        """The perf scenarios produce the same deterministic facts."""
        plain = SCENARIOS["kernel_churn"]("smoke")
        enable_profiling()
        profiled = SCENARIOS["kernel_churn"]("smoke")
        assert profiled.events == plain.events
        assert profiled.sim_ns == plain.sim_ns


# -- attribution --------------------------------------------------------------

class TestAttribution:
    def test_attributes_95_percent_across_perf_scenarios(self):
        """The acceptance pin: >= 95% of measured wall time attributed,
        per scenario, for all three pinned benchmarks."""
        for name, runner in SCENARIOS.items():
            enable_profiling()
            runner("smoke")
            doc = attribution()
            assert doc["total_wall_s"] > 0, name
            assert doc["attributed_fraction"] >= 0.95, \
                f"{name}: {doc['attributed_fraction']:.3f}"
            shares = sum(e["share"] for e in doc["layers"].values())
            assert shares == pytest.approx(doc["attributed_fraction"])
            disable_profiling()

    def test_real_layers_show_up(self):
        enable_profiling()
        SCENARIOS["randread_nvme"]("smoke")
        doc = attribution()
        assert {"nvme", "icl", "sim"} <= set(doc["layers"])
        for entry in doc["layers"].values():
            assert entry["calls"] >= 0 and entry["seconds"] >= 0.0

    def test_kernel_overhead_is_booked_under_sim(self):
        prof = WallProfiler(label="x")
        prof.record([], 0.0, 0.25)
        prof.note_run(1.0)
        doc = attribution([prof])
        assert doc["kernel_wall_s"] == pytest.approx(0.75)
        assert doc["layers"]["sim"]["seconds"] == pytest.approx(1.0)
        assert doc["attributed_fraction"] == pytest.approx(1.0)

    def test_merges_across_profilers(self):
        a, b = WallProfiler(label="a"), WallProfiler(label="b")
        for prof in (a, b):
            prof.record([], 0.0, 0.5)
            prof.note_run(0.5)
        doc = attribution([a, b])
        assert doc["runs"] == 2 and doc["events"] == 2
        assert doc["total_wall_s"] == pytest.approx(1.0)

    def test_hottest_layers_orders_by_seconds(self):
        doc = {"layers": {"ftl": {"seconds": 3.0}, "sim": {"seconds": 1.0},
                          "nvme": {"seconds": 2.0}, "gc": {"seconds": 0.5}}}
        assert hottest_layers(doc) == ["ftl", "nvme", "sim"]

    def test_empty_attribution_is_harmless(self):
        doc = attribution([])
        assert doc["total_wall_s"] == 0.0
        assert doc["attributed_fraction"] == 0.0
        assert doc["label"] == "(no profilers)"
        assert "0 dispatched event(s)" in attribution_markdown([])


# -- exports ------------------------------------------------------------------

class TestExports:
    def test_markdown_names_top3_hottest_layers(self):
        enable_profiling()
        SCENARIOS["write_storm_gc"]("smoke")
        text = attribution_markdown()
        assert "Top-3 hottest layers:" in text
        assert "| layer | calls | wall ms | share |" in text
        doc = attribution()
        for name in hottest_layers(doc):
            assert f"`{name}`" in text

    def test_chrome_trace_is_valid_and_wall_scaled(self, tmp_path):
        enable_profiling()
        sim = Simulator()
        sim.run_process(_pingpong(sim))
        path = tmp_path / "prof.trace.json"
        n_events = write_profile_trace(path, profilers())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n_events > 0
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices and all(e["dur"] >= 0 for e in slices)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert "process_name" in names

    def test_trace_slices_are_bounded(self):
        enable_profiling(max_slices=4)
        sim = Simulator()
        sim.run_process(_pingpong(sim, rounds=100))
        prof = profilers()[0]
        assert len(prof.slices()) == 4
        assert prof.events > 4          # totals still cover everything

    def test_write_profile_emits_both_artifacts(self, tmp_path):
        enable_profiling()
        sim = Simulator()
        sim.run_process(_pingpong(sim))
        paths = write_profile(tmp_path / "attr")
        assert [p.split(".", 1)[-1] for p in
                [str(p)[len(str(tmp_path)) + 1:] for p in paths]] == \
            ["md", "trace.json"]
        markdown = (tmp_path / "attr.md").read_text()
        assert "Wall-clock attribution" in markdown
        json.loads((tmp_path / "attr.trace.json").read_text())

    def test_write_profile_strips_a_suffixed_base(self, tmp_path):
        enable_profiling()
        sim = Simulator()
        sim.run_process(_pingpong(sim))
        paths = write_profile(tmp_path / "attr.md")
        assert str(tmp_path / "attr.md") in paths
        assert str(tmp_path / "attr.trace.json") in paths


# -- categorization -----------------------------------------------------------

class TestCategorize:
    @pytest.mark.parametrize("path,layer", [
        ("/x/src/repro/ssd/firmware/ftl/gc.py", "gc"),
        ("/x/src/repro/ssd/firmware/ftl/mapping.py", "ftl"),
        ("/x/src/repro/ssd/firmware/icl.py", "icl"),
        ("/x/src/repro/ssd/firmware/fil.py", "fil"),
        ("/x/src/repro/ssd/firmware/hil.py", "hil"),
        ("/x/src/repro/ssd/storage/flash.py", "flash"),
        ("/x/src/repro/interfaces/nvme/queues.py", "nvme"),
        ("/x/src/repro/hostos/blocklayer.py", "hostos"),
        ("/x/src/repro/core/system.py", "host"),
        ("/x/src/repro/workloads/fio.py", "host"),
        ("/x/src/repro/baselines/replay.py", "baseline"),
        ("/x/src/repro/sim/process.py", "sim"),
        ("/somewhere/else.py", "other"),
        (None, "sim"),
    ])
    def test_path_to_layer(self, path, layer):
        assert profiler_mod._categorize(path) == layer

    def test_process_resume_attributes_to_the_generator(self):
        enable_profiling()
        sim = Simulator()
        sim.run_process(_pingpong(sim))
        doc = attribution()
        # the generator lives in this test file -> "other", not "sim"
        assert "other" in doc["layers"]
        assert any("test_obs_profiler" in name for name in doc["modules"])
