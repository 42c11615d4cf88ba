"""The simflow whole-project framework: module resolution, the call
graph, cross-file unit/taint/lock analysis, the adoption baseline, the
versioned ``--json`` report and ``lint --changed`` (docs/ANALYSIS.md,
"The dataflow pass").
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.analysis import lint_paths, lint_source
from repro.analysis.baseline import Baseline
from repro.analysis.findings import META_RULE, Finding
from repro.analysis.flow import Project, module_name_for
from repro.analysis.flow.unitcheck import Unit, unit_of_identifier
from repro.analysis.registry import iter_python_files


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _project(*sources):
    """Build a Project from (path, source) pairs."""
    return Project([(path, ast.parse(textwrap.dedent(text), filename=path))
                    for path, text in sources])


def _unsup(findings):
    return [f for f in findings if not f.suppressed]


# -- module naming and call resolution ----------------------------------------

class TestProjectModel:
    def test_module_name_rooted_at_package(self):
        assert module_name_for("src/repro/sim/engine.py") == \
            "repro.sim.engine"
        assert module_name_for("/abs/co/src/repro/obs/journal.py") == \
            "repro.obs.journal"
        assert module_name_for("tests/test_x.py") == "tests.test_x"
        assert module_name_for("/tmp/scratch.py") == "scratch"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"

    def test_resolves_local_and_imported_calls(self):
        project = _project(
            ("a.py", """
                def helper_ns():
                    return 5
                def caller():
                    return helper_ns()
             """),
            ("b.py", """
                from a import helper_ns
                def other():
                    return helper_ns()
             """))
        caller = project.functions["a.caller"]
        call = next(n for n in ast.walk(caller.node)
                    if isinstance(n, ast.Call))
        assert [f.qualname for f in project.resolve_call(caller, call)] == \
            ["a.helper_ns"]
        other = project.functions["b.other"]
        call = next(n for n in ast.walk(other.node)
                    if isinstance(n, ast.Call))
        assert [f.qualname for f in project.resolve_call(other, call)] == \
            ["a.helper_ns"]

    def test_resolves_self_method_through_inheritance(self):
        project = _project(
            ("base.py", """
                class Base:
                    def tick(self):
                        return 1
             """),
            ("child.py", """
                from base import Base
                class Child(Base):
                    def run(self):
                        return self.tick()
             """))
        run = project.functions["child.Child.run"]
        call = next(n for n in ast.walk(run.node)
                    if isinstance(n, ast.Call))
        assert [f.qualname for f in project.resolve_call(run, call)] == \
            ["base.Base.tick"]

    def test_ambiguous_method_names_stay_unresolved(self):
        mods = [(f"m{i}.py", f"""
                class C{i}:
                    def frob(self):
                        return {i}
             """) for i in range(6)]
        mods.append(("user.py", """
                def use(obj):
                    return obj.frob()
             """))
        project = _project(*mods)
        use = project.functions["user.use"]
        call = next(n for n in ast.walk(use.node)
                    if isinstance(n, ast.Call))
        assert project.resolve_call(use, call) == []


# -- the unit lattice ---------------------------------------------------------

class TestUnitInference:
    def test_suffix_and_exact_names(self):
        assert unit_of_identifier("lat_ns") == Unit("ns")
        assert unit_of_identifier("nbytes") == Unit("bytes")
        assert unit_of_identifier("slba") == Unit("sectors")
        assert unit_of_identifier("first_lpn") == Unit("pages")
        assert unit_of_identifier("clk_hz") == Unit("hz")
        assert unit_of_identifier("wait_us") == Unit("us")
        assert unit_of_identifier("plain_counter") is None

    def test_per_names_declare_ratios(self):
        assert unit_of_identifier("sectors_per_page") == \
            Unit("sectors", "pages")
        assert unit_of_identifier("ns_per_byte") == Unit("ns", "bytes")
        assert unit_of_identifier("pages_per_chunk") is None

    def test_ratio_division_converts_units(self):
        # sectors // sectors_per_page is pages: the pblk idiom is clean
        findings = lint_source("conv.py", textwrap.dedent("""
            def to_lpn(slba, sectors_per_page):
                first_lpn = slba // sectors_per_page
                return first_lpn
        """))
        assert _unsup(findings) == [], \
            "\n".join(f.format() for f in findings)

    def test_units_constants_convert_scales(self):
        findings = lint_source("conv.py", textwrap.dedent("""
            from repro.common.units import US
            def wait_ns(delay_us):
                return delay_us * US
        """))
        assert _unsup(findings) == []

    def test_cross_file_return_summary_flags_mixture(self):
        findings = lint_source("mix.py", textwrap.dedent("""
            def sense_latency_ns():
                return 59_975
            def total(nbytes):
                return sense_latency_ns() + nbytes
        """))
        assert {f.rule for f in _unsup(findings)} == {"SIM201"}

    def test_cross_file_unit_flow_via_lint_paths(self, tmp_path):
        _write(tmp_path, "timing.py", """
            def sense_ns():
                return 59_975
        """)
        _write(tmp_path, "use.py", """
            from timing import sense_ns
            def broken(nbytes):
                return sense_ns() + nbytes
        """)
        result = lint_paths([str(tmp_path)])
        assert {f.rule for f in result.unsuppressed} == {"SIM201"}
        assert result.unsuppressed[0].path.endswith("use.py")


# -- determinism taint --------------------------------------------------------

class TestTaint:
    def test_wallclock_escaping_sanctioned_module_is_flagged(self, tmp_path):
        _write(tmp_path, "repro/obs/journal.py", """
            import time
            def wall_now():
                return time.time()  # simlint: disable=SIM101 -- sanctioned module
        """)
        _write(tmp_path, "repro/model.py", """
            from repro.obs.journal import wall_now
            class Model:
                def poke(self):
                    self.stamp = wall_now()
        """)
        result = lint_paths([str(tmp_path)])
        sim210 = [f for f in result.unsuppressed if f.rule == "SIM210"]
        assert len(sim210) == 1
        assert sim210[0].path.endswith("model.py")
        assert any("wall_now" in hop for hop in sim210[0].witness)

    def test_sanctioned_module_may_store_its_own_clock(self, tmp_path):
        _write(tmp_path, "repro/obs/journal.py", """
            import time
            def wall_now():
                return time.time()  # simlint: disable=SIM101 -- sanctioned module
            class Journal:
                def stamp(self):
                    self.t0 = wall_now()
        """)
        result = lint_paths([str(tmp_path)])
        assert [f.rule for f in result.unsuppressed] == []

    def test_direct_same_function_store_is_not_reported_twice(self):
        # the per-file rules own the intraprocedural case
        findings = lint_source("repro/obs/profiler.py", textwrap.dedent("""
            import time
            class T:
                def mark(self):
                    self.t = time.time()  # simlint: disable=SIM101 -- profiler
        """))
        assert all(f.rule != "SIM210" for f in _unsup(findings))

    def test_sorted_sanitizes_set_order(self):
        findings = lint_source("s.py", textwrap.dedent("""
            class Agg:
                def _tags(self):
                    return sorted({"a", "b"})
                def snap(self):
                    self.order = self._tags()
        """))
        assert _unsup(findings) == []


# -- lock order ---------------------------------------------------------------

class TestLockOrder:
    def test_param_passed_lock_resolves_at_call_site(self):
        # the backend's _traced_acquire pattern: the lock is an argument
        findings = lint_source("locks.py", textwrap.dedent("""
            class B:
                def _slow_acquire(self, resource):
                    yield resource.acquire()  # simlint: disable=SIM106 -- helper; caller releases

                def read(self, sim):
                    yield from self._slow_acquire(self.die)
                    try:
                        yield from self._slow_acquire(self.channel)
                        try:
                            yield sim.timeout(1)
                        finally:
                            self.channel.release()
                    finally:
                        self.die.release()

                def program(self, sim):
                    yield from self._slow_acquire(self.channel)
                    try:
                        yield from self._slow_acquire(self.die)
                        try:
                            yield sim.timeout(1)
                        finally:
                            self.die.release()
                    finally:
                        self.channel.release()
        """))
        sim220 = [f for f in _unsup(findings) if f.rule == "SIM220"]
        assert len(sim220) == 1
        assert "B.die" in sim220[0].message
        assert "B.channel" in sim220[0].message

    def test_consistent_order_is_clean_and_multi_unit_is_not_a_cycle(self):
        findings = lint_source("locks.py", textwrap.dedent("""
            class B:
                def multiplane(self, sim, units):
                    for unit in units:
                        yield self.die.acquire()   # same class: self-edge
                    try:
                        yield self.channel.acquire()
                        try:
                            yield sim.timeout(1)
                        finally:
                            self.channel.release()
                    finally:
                        self.die.release()  # simlint: disable=SIM106 -- fixture releases one token for brevity
        """))
        assert all(f.rule != "SIM220" for f in _unsup(findings))


# -- the adoption baseline ----------------------------------------------------

class TestBaseline:
    def _finding(self, rule="SIM210", path="tests/test_x.py", line=7):
        return Finding(rule=rule, path=path, line=line, col=0,
                       message="m")

    def test_entry_suppresses_matching_finding_with_reason(self):
        baseline = Baseline.parse("b.txt", textwrap.dedent("""
            # comment
            SIM210 tests/test_x.py -- replay stores wall time by design
        """))
        out = baseline.apply([self._finding()],
                             linted_paths={"tests/test_x.py"})
        assert out[0].suppressed
        assert "replay stores wall time" in out[0].reason

    def test_line_scoped_entry_matches_only_that_line(self):
        baseline = Baseline.parse(
            "b.txt", "SIM210 tests/test_x.py:7 -- pinned\n")
        hit, miss = self._finding(line=7), self._finding(line=9)
        out = baseline.apply([hit, miss], linted_paths=set())
        assert out[0].suppressed and not out[1].suppressed

    def test_reasonless_entry_is_sim100(self):
        baseline = Baseline.parse("b.txt", "SIM210 tests/test_x.py\n")
        out = baseline.apply([], linted_paths=set())
        assert [f.rule for f in out] == [META_RULE]
        assert "reason" in out[0].message

    def test_unparseable_line_is_sim100(self):
        baseline = Baseline.parse("b.txt", "what even is this\n")
        out = baseline.apply([], linted_paths=set())
        assert [f.rule for f in out] == [META_RULE]

    def test_stale_entry_for_linted_file_is_sim100(self):
        baseline = Baseline.parse(
            "b.txt", "SIM210 tests/test_x.py -- fixed long ago\n")
        out = baseline.apply([], linted_paths={"tests/test_x.py"})
        assert [f.rule for f in out] == [META_RULE]
        assert "stale" in out[0].message

    def test_out_of_scope_entry_is_left_alone(self):
        baseline = Baseline.parse(
            "b.txt", "SIM210 tests/test_y.py -- other tree\n")
        out = baseline.apply([], linted_paths={"tests/test_x.py"})
        assert out == []

    def test_paths_match_by_suffix(self):
        baseline = Baseline.parse(
            "b.txt", "SIM210 tests/test_x.py -- suffix match\n")
        finding = self._finding(path="/abs/checkout/tests/test_x.py")
        out = baseline.apply([finding], linted_paths=set())
        assert out[0].suppressed

    def test_repo_baseline_entries_all_carry_reasons(self):
        repo_baseline = Path(__file__).parent.parent / \
            "analysis-baseline.txt"
        baseline = Baseline.load(str(repo_baseline))
        assert baseline.malformed == []
        assert baseline.entries
        for entry in baseline.entries:
            assert len(entry.reason) > 10, entry


# -- file iteration -----------------------------------------------------------

def test_iter_python_files_exclude(tmp_path):
    _write(tmp_path, "keep.py", "x = 1\n")
    _write(tmp_path, "fixtures/drop.py", "x = 1\n")
    got = list(iter_python_files([str(tmp_path)], exclude=("fixtures",)))
    assert [os.path.basename(p) for p in got] == ["keep.py"]


# -- the CLI: versioned JSON, --changed ---------------------------------------

def _run_cli(*args, cwd=None):
    src_dir = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


FIXTURES = Path(__file__).parent / "analysis_fixtures"


class TestJsonSchema:
    def test_document_shape_and_byte_stability(self):
        """Pin the repro.analysis/1 report: key set, sorted keys, and
        byte-identical output across runs (the fleet.watch/1 contract,
        applied to lint)."""
        proc = _run_cli("lint", "--json", str(FIXTURES / "sim210_bad.py"))
        line = proc.stdout.strip()
        doc = json.loads(line)
        assert set(doc) == {"schema", "findings", "summary"}
        assert doc["schema"] == "repro.analysis/1"
        assert set(doc["summary"]) == {"total", "unsuppressed",
                                       "suppressed", "by_rule",
                                       "exit_code"}
        for finding in doc["findings"]:
            assert set(finding) == {"rule", "location", "path", "line",
                                    "col", "message", "witness",
                                    "suppressed", "reason"}
        sim210 = [f for f in doc["findings"] if f["rule"] == "SIM210"]
        assert sim210 and sim210[0]["witness"], \
            "taint findings must ship their witness path"
        assert sim210[0]["location"].endswith(
            f":{sim210[0]['line']}")
        # byte stability: canonical dump and a second run both match
        assert line == json.dumps(doc, sort_keys=True)
        again = _run_cli("lint", "--json",
                         str(FIXTURES / "sim210_bad.py"))
        assert again.stdout == proc.stdout

    def test_findings_are_sorted(self):
        proc = _run_cli("lint", "--json", str(FIXTURES))
        doc = json.loads(proc.stdout)
        keys = [(f["path"], f["line"], f["col"], f["rule"])
                for f in doc["findings"]]
        assert keys == sorted(keys)


class TestChanged:
    def _git(self, cwd, *args):
        return subprocess.run(["git", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=60)

    def test_changed_scopes_reporting_to_touched_files(self, tmp_path):
        _write(tmp_path, "clean.py", """
            import time
            wall = time.time()
        """)
        _write(tmp_path, "touched.py", "x = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "add", ".")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-qm", "seed")
        # introduce a violation in touched.py only
        (tmp_path / "touched.py").write_text(
            "import random\nx = random.random()\n")
        proc = _run_cli("lint", ".", "--changed", "HEAD", cwd=tmp_path)
        assert proc.returncode == 1
        assert "touched.py" in proc.stdout
        # clean.py also has a violation, but was not changed
        assert "clean.py" not in proc.stdout

    def test_changed_with_no_touched_files_exits_zero(self, tmp_path):
        _write(tmp_path, "clean.py", "x = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "add", ".")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-qm", "seed")
        proc = _run_cli("lint", ".", "--changed", cwd=tmp_path)
        assert proc.returncode == 0
        assert "nothing to do" in proc.stderr

    def test_changed_outside_git_falls_back_to_full_run(self, tmp_path):
        _write(tmp_path, "bad.py", "import time\nwall = time.time()\n")
        proc = _run_cli("lint", ".", "--changed", cwd=tmp_path)
        assert proc.returncode == 1
        assert "--changed ignored" in proc.stderr
        assert "SIM101" in proc.stdout
