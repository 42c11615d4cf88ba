"""The sampling self-profiler (``repro.obs.profiler``): nothing attached
to any simulator, bit-identical simulation when on, >= 95% of samples
attributed across the pinned perf scenarios, the frame-chain charging
rule, and the Markdown export the CI artifact is built from
(``docs/OBSERVABILITY.md``, "The sampling self-profiler")."""

import signal
import sys
from pathlib import Path

import pytest

import repro
from repro.common.instructions import InstructionMix
from repro.experiments.perf_scenarios import SCENARIOS
from repro.host.cpu import HostCpu
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import (
    attribution,
    attribution_markdown,
    disable_profiling,
    enable_profiling,
    hottest_layers,
    profiling_enabled,
    write_profile,
)
from repro.sim import Simulator, observe

FTL_FILE = "/x/src/repro/ssd/firmware/ftl/mapping.py"
FLASH_FILE = "/x/src/repro/ssd/storage/flash.py"
KERNEL_FILE = "/x/src/repro/sim/events.py"


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


def _defined_in(path, source, name):
    """Function ``name`` from ``source``, compiled as if it lived at
    ``path`` — its frames categorize like that module's."""
    namespace = {}
    exec(compile(source, path, "exec"), namespace)
    return namespace[name]


def _call_in(path):
    """A helper whose frame lives in ``path``: ``helper(inner)`` returns
    ``inner()`` called from inside that frame."""
    return _defined_in(path, "def call(inner):\n    return inner()\n",
                       "call")


def _charge_here():
    """What a sample of the calling stack would be charged to."""
    return profiler_mod._charge(sys._getframe())


def _charge_in_run(probe):
    """``probe()`` evaluated from an event callback inside
    ``Simulator.run``."""
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(probe()))
    sim.run()
    return seen[0]


# -- the switch ---------------------------------------------------------------

class TestSwitch:
    def test_off_by_default(self):
        assert not profiling_enabled()
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is not profiler_mod._on_sample

    def test_enable_arms_new_simulators(self):
        """Armed, profiling samples the whole process: simulators built
        afterwards are covered while keeping their plain loop."""
        enable_profiling()
        assert profiling_enabled()
        assert Simulator().observers == []
        SCENARIOS["kernel_churn"]("smoke")
        assert attribution()["layers"]["sim"]["samples"] > 0

    def test_enable_installs_no_construction_hook(self):
        """Arming (even twice) leaves the construction-hook registry
        alone and attaches no observer to a new simulator."""
        before = observe.hooks()
        enable_profiling()
        enable_profiling()
        assert observe.hooks() == before == ()
        assert Simulator().observers == []

    def test_disable_drops_collected_profilers(self):
        enable_profiling()
        SCENARIOS["kernel_churn"]("smoke")
        disable_profiling()
        assert not profiling_enabled()
        assert attribution()["samples"] > 0      # readable until re-armed
        enable_profiling()
        assert attribution()["samples"] <= 1     # a fresh session

    def test_enable_disable_restores_the_previous_handler(self):
        def previous(_signum, _frame):
            """A stand-in for whatever handler was installed before."""

        original = signal.signal(signal.SIGPROF, previous)
        try:
            enable_profiling()
            assert signal.getsignal(signal.SIGPROF) is profiler_mod._on_sample
            interval = signal.getitimer(signal.ITIMER_PROF)[1]
            assert interval == pytest.approx(profiler_mod.INTERVAL_S)
            enable_profiling()                   # re-arming keeps it
            disable_profiling()
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            disable_profiling()                  # idempotent
            assert signal.getsignal(signal.SIGPROF) is previous
        finally:
            signal.signal(signal.SIGPROF, original)


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
        """Every perf scenario produces the same deterministic facts."""
        for name, runner in SCENARIOS.items():
            plain = runner("smoke")
            enable_profiling()
            profiled = runner("smoke")
            disable_profiling()
            assert profiled.events == plain.events, name
            assert profiled.sim_ns == plain.sim_ns, name


# -- attribution --------------------------------------------------------------

class TestAttribution:
    def test_attributes_95_percent_across_perf_scenarios(self):
        """The acceptance pin: >= 95% of samples attributed, per
        scenario, for all three pinned benchmarks."""
        for name, runner in SCENARIOS.items():
            enable_profiling()
            runner("smoke")
            doc = attribution()
            assert doc["samples"] > 0 and doc["cpu_s"] > 0, name
            assert doc["attributed_fraction"] >= 0.95, \
                f"{name}: {doc['attributed_fraction']:.3f}"
            shares = sum(e["share"] for e in doc["layers"].values())
            assert shares == pytest.approx(doc["attributed_fraction"])
            seconds = sum(e["seconds"] for e in doc["layers"].values())
            assert seconds == pytest.approx(
                doc["cpu_s"] * doc["attributed_fraction"])
            disable_profiling()

    def test_real_layers_show_up(self):
        enable_profiling()
        SCENARIOS["write_storm_gc"]("smoke")
        doc = attribution()
        assert {"nvme", "icl", "sim"} <= set(doc["layers"])
        for entry in doc["layers"].values():
            assert entry["samples"] > 0 and entry["seconds"] > 0.0

    def test_kernel_overhead_is_booked_under_sim(self):
        """A run-loop stack whose only repro frames are the kernel's."""
        layer, site = _charge_in_run(_charge_here)
        assert layer == "sim"
        assert site.split(":")[0] == "engine.py"

    def test_hottest_layers_orders_by_seconds(self):
        doc = {"layers": {"ftl": {"seconds": 3.0}, "sim": {"seconds": 1.0},
                          "nvme": {"seconds": 2.0}, "gc": {"seconds": 0.5}}}
        assert hottest_layers(doc) == ["ftl", "nvme", "sim"]

    def test_empty_attribution_is_harmless(self, monkeypatch):
        monkeypatch.setattr(profiler_mod, "_samples", {})
        monkeypatch.setattr(profiler_mod, "_unattributed", 0)
        doc = attribution()
        assert doc["samples"] == 0
        assert doc["attributed_fraction"] == 0.0
        assert doc["layers"] == {} and doc["sites"] == {}
        assert "0 sample(s)" in attribution_markdown()

    def test_frameless_samples_are_unattributed(self, monkeypatch):
        monkeypatch.setattr(profiler_mod, "_samples", {})
        monkeypatch.setattr(profiler_mod, "_unattributed", 0)
        profiler_mod._on_sample(signal.SIGPROF, None)
        profiler_mod._on_sample(signal.SIGPROF, sys._getframe())
        doc = attribution()
        assert doc["samples"] == 2
        assert doc["attributed_fraction"] == pytest.approx(0.5)


# -- the frame chain ----------------------------------------------------------

class TestCharge:
    def test_innermost_model_layer_wins_over_kernel_frames(self):
        in_ftl, in_kernel = _call_in(FTL_FILE), _call_in(KERNEL_FILE)
        charged = _charge_in_run(
            lambda: in_ftl(lambda: in_kernel(_charge_here)))
        assert charged == ("ftl", "mapping.py:call")

    def test_innermost_of_two_model_layers_wins(self):
        in_ftl, in_flash = _call_in(FTL_FILE), _call_in(FLASH_FILE)
        charged = _charge_in_run(
            lambda: in_ftl(lambda: in_flash(_charge_here)))
        assert charged == ("flash", "flash.py:call")

    def test_stack_without_run_loop_is_setup(self):
        assert _call_in(FTL_FILE)(_charge_here) == \
            ("setup", "mapping.py:call")
        assert _charge_here()[0] == "setup"


# -- exports ------------------------------------------------------------------

class TestExports:
    def test_markdown_names_top3_hottest_layers(self):
        enable_profiling()
        SCENARIOS["write_storm_gc"]("smoke")
        text = attribution_markdown()
        assert "Top-3 hottest layers:" in text
        assert "| layer | samples | CPU ms | share |" in text
        assert "| hottest call sites | samples | CPU ms |" in text
        doc = attribution()
        for name in hottest_layers(doc):
            assert f"`{name}`" in text

    def test_write_profile_emits_markdown_only(self, tmp_path):
        enable_profiling()
        SCENARIOS["kernel_churn"]("smoke")
        paths = write_profile(tmp_path / "attr")
        assert paths == [str(tmp_path / "attr.md")]
        assert [p.name for p in tmp_path.iterdir()] == ["attr.md"]
        assert "Host-time attribution" in (tmp_path / "attr.md").read_text()

    def test_write_profile_strips_a_suffixed_base(self, tmp_path):
        enable_profiling()
        paths = write_profile(tmp_path / "attr.md")
        assert paths == [str(tmp_path / "attr.md")]


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
        ("/x/src/repro/host/cpu.py", "host"),
        ("/x/src/repro/core/system.py", "core"),
        ("/x/src/repro/workloads/fio.py", "core"),
        ("/x/src/repro/baselines/replay.py", "baseline"),
        ("/x/src/repro/sim/process.py", "sim"),
        ("/somewhere/else.py", "other"),
        (None, "sim"),
    ])
    def test_path_to_layer(self, path, layer):
        assert profiler_mod._categorize(path) == layer

    @pytest.mark.parametrize("package", [
        "host", "hostos", "core", "workloads", "interfaces", "ssd",
        "baselines"])
    def test_every_model_module_has_a_layer(self, package):
        """No model module falls through to ``other``, or to ``sim``,
        which would book its samples as kernel time."""
        root = Path(repro.__file__).parent / package
        files = sorted(root.rglob("*.py"))
        assert files
        unattributed = [str(path) for path in files
                        if profiler_mod._categorize(str(path))
                        in ("other", "sim")]
        assert unattributed == []

    def test_sample_inside_host_cpu_execute_is_charged_to_host(self):
        """A real frame of ``repro/host/cpu.py:execute`` on the stack
        charges the sample to ``host``, not to the kernel."""
        sim = Simulator()
        cpu = HostCpu(sim, n_cores=1, frequency=1_000_000_000)
        charged = []
        cpu.exec_ns = lambda mix: charged.append(_charge_here()) or 10
        sim.run_process(cpu.execute(InstructionMix.typical(100)))
        assert charged == [("host", "cpu.py:execute")]

    def test_process_resume_attributes_to_the_generator(self):
        """A process step is charged to the module defining the
        generator, not to the kernel's ``Process._resume``."""
        worker = _defined_in(
            FTL_FILE,
            "def worker(sim, probe):\n"
            "    yield sim.timeout(3)\n"
            "    return probe()\n",
            "worker")
        sim = Simulator()
        assert sim.run_process(worker(sim, _charge_here)) == \
            ("ftl", "mapping.py:worker")
