"""Per-request causal latency forensics (:mod:`repro.obs.causal`) and
the differential explain layer (:mod:`repro.obs.diff`): the conservation
invariant (components sum exactly to end-to-end latency for *every*
request), bounded top-K tail capture with blame edges, bit-identical
results with capture on or off, and byte-deterministic explain reports
across fleet ``--jobs`` counts (``docs/OBSERVABILITY.md``)."""

import json

import pytest

from repro.experiments.golden import digest
from repro.fleet import ResultStore, SweepSpec, merge_results, run_sweep
from repro.fleet.report import render_markdown
from repro.fleet.runner import run_one_job
from repro.fleet.spec import Job, config_hash
from repro.obs import (
    CHAIN_CAP,
    COMPONENTS,
    CausalTracer,
    causal_enabled,
    causal_summary,
    component_of,
    disable_causal,
    enable_causal,
)
from repro.obs.causal import BLAME_KINDS
from repro.obs.diff import (
    explain,
    merged_ops,
    render_causal_markdown,
    render_explain_markdown,
    write_explain_report,
)
from repro.sim.tracer import Tracer


class _Clock:
    def __init__(self):
        self.now = 0


@pytest.fixture
def causal():
    """Arm process-wide causal capture for one test, always cleaning up."""
    enable_causal()
    yield
    disable_causal()


#: the tiny fio job every full-stack test here simulates
FIO_PARAMS = {"scenario": "fio", "preset": "intel750", "rw": "randread",
              "total_ios": 60, "iodepth": 4, "bs": 4096, "channels": 2}

#: two-config sweep used for the fleet-level determinism pins
TINY = SweepSpec(
    name="tiny-causal", scenario="fio",
    base={"preset": "intel750", "rw": "randread", "total_ios": 60,
          "iodepth": 4, "bs": 4096},
    axes={"channels": (2, 4)})


def _job(params):
    return Job(params=params, config_hash=config_hash(params))


# -- unit: the streaming self-time partition ----------------------------------


class TestConservation:
    def test_nested_spans_telescope_exactly(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 1, op="READ")
        clock.now = 10
        mid = tracer.begin("ftl.translate", 1)
        clock.now = 25
        leaf = tracer.begin("flash.read", 1)
        clock.now = 95
        tracer.end(leaf)
        clock.now = 100
        tracer.end(mid)
        clock.now = 130
        tracer.end(root)
        assert tracer.records == 1 and tracer.violations == 0
        (record,) = tracer.worst("READ")
        assert record["total_ns"] == 130
        assert sum(record["components"].values()) == record["total_ns"]
        assert record["components"] == {
            "host_queue": 10 + 30, "ftl": 15 + 5, "die_busy": 70}

    def test_out_of_order_end_still_conserves(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 3, op="READ")
        a = tracer.begin("ftl.translate", 3)
        clock.now = 5
        b = tracer.begin("flash.read", 3)
        clock.now = 11
        tracer.end(a)               # a closes before its child b
        clock.now = 20
        tracer.end(b)
        clock.now = 23
        tracer.end(root)
        assert tracer.violations == 0
        (record,) = tracer.worst("READ")
        assert sum(record["components"].values()) == 23

    def test_interleaved_tracks_partition_independently(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        r1 = tracer.begin("io.submit", 1, op="READ")
        clock.now = 4
        r2 = tracer.begin("io.submit", 2, op="WRITE")
        clock.now = 9
        f1 = tracer.begin("flash.read", 1)
        clock.now = 20
        tracer.end(f1)
        tracer.end(r1)
        clock.now = 33
        tracer.end(r2)
        assert tracer.violations == 0
        (read,) = tracer.worst("READ")
        (write,) = tracer.worst("WRITE")
        assert sum(read["components"].values()) == 20
        assert sum(write["components"].values()) == 33 - 4

    def test_double_end_is_idempotent(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 1, op="READ")
        clock.now = 8
        tracer.end(root)
        clock.now = 99
        tracer.end(root)            # pinned choice: silently ignored
        assert tracer.records == 1 and tracer.violations == 0
        (record,) = tracer.worst("READ")
        assert record["total_ns"] == 8

    def test_op_falls_back_to_root_kind(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        span = tracer.begin("flash.read", 0)
        clock.now = 3
        tracer.end(span)
        assert tracer.op_counts == {"flash.read": 1}


class TestComponentTaxonomy:
    def test_every_mapped_kind_lands_in_the_fixed_order(self):
        from repro.obs.causal import KIND_COMPONENT
        assert set(KIND_COMPONENT.values()) <= set(COMPONENTS)

    def test_unknown_kind_is_other(self):
        assert component_of("martian.telepathy") == "other"
        clock = _Clock()
        tracer = CausalTracer(clock)
        span = tracer.begin("martian.telepathy", 5)
        clock.now = 7
        tracer.end(span)
        (record,) = tracer.worst("martian.telepathy")
        assert record["components"] == {"other": 7}

    def test_blame_kinds_are_wait_components(self):
        for kind in BLAME_KINDS:
            assert component_of(kind) in ("gc_stall", "channel_wait",
                                          "die_wait")


class TestBlame:
    def test_wait_span_records_holder(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 1, op="READ")
        wait = tracer.begin("flash.die_wait", 1, holder="gc:3")
        clock.now = 40
        tracer.end(wait)
        tracer.end(root)
        (record,) = tracer.worst("READ")
        assert record["blame"] == {"gc:3": 40}
        assert tracer.blame_ns["READ"] == {"gc:3": 40}

    def test_zero_length_wait_is_not_blamed(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 1, op="READ")
        wait = tracer.begin("flash.die_wait", 1, holder="ns:2")
        tracer.end(wait)            # zero-duration: no contention at all
        clock.now = 5
        tracer.end(root)
        (record,) = tracer.worst("READ")
        assert record["blame"] == {}


class TestBoundedMemory:
    def test_top_k_keeps_exactly_the_worst(self):
        clock = _Clock()
        tracer = CausalTracer(clock, top_k=3)
        for index, total in enumerate([5, 50, 10, 40, 30, 20]):
            span = tracer.begin("io.submit", index + 1, op="READ")
            clock.now += total
            tracer.end(span)
        worst = tracer.worst("READ")
        assert [r["total_ns"] for r in worst] == [50, 40, 30]
        assert tracer.records == 6          # aggregates still count all

    def test_ties_keep_the_earlier_request(self):
        clock = _Clock()
        tracer = CausalTracer(clock, top_k=1)
        for track in (1, 2):
            span = tracer.begin("io.submit", track, op="READ")
            clock.now += 10
            tracer.end(span)
        (record,) = tracer.worst("READ")
        assert record["track"] == 1

    def test_chain_is_capped(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        root = tracer.begin("io.submit", 1, op="READ")
        for _ in range(CHAIN_CAP + 10):
            inner = tracer.begin("ftl.translate", 1)
            clock.now += 1
            tracer.end(inner)
        tracer.end(root)
        (record,) = tracer.worst("READ")
        assert len(record["chain"]) == CHAIN_CAP
        assert record["chain_dropped"] == 11    # 10 extra inners + the root

    def test_state_is_dropped_at_root_close(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        span = tracer.begin("io.submit", 1, op="READ")
        clock.now = 2
        tracer.end(span)
        assert tracer._live == {}


class TestTrackAliasing:
    """Raw request ids come from a process-global counter; stored records
    must alias them so fleet stores stay byte-identical across --jobs."""

    def test_records_use_first_appearance_aliases(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        for raw in (4711, 9000):          # arbitrary global counter values
            span = tracer.begin("io.submit", raw, op="READ")
            clock.now += 10
            tracer.end(span)
        tracks = sorted(r["track"] for r in tracer.worst("READ"))
        assert tracks == [1, 2]

    def test_owner_label_is_aliased_and_annotation_wins(self):
        tracer = CausalTracer(_Clock())
        tracer.begin("io.submit", 12345, op="READ")
        assert tracer.owner_label(12345) == "req:1"
        assert tracer.owner_label(0) == "bg"
        tracer.annotate_track(12345, "ns:7")
        assert tracer.owner_label(12345) == "ns:7"

    def test_same_track_keeps_its_alias_across_episodes(self):
        clock = _Clock()
        tracer = CausalTracer(clock)
        for _ in range(2):
            span = tracer.begin("io.submit", 777, op="READ")
            clock.now += 5
            tracer.end(span)
        assert {r["track"] for r in tracer.worst("READ")} == {1}


# -- satellite: Tracer.end edge cases -----------------------------------------


class TestTracerEndEdgeCases:
    def test_double_end_keeps_first_timestamp(self):
        clock = _Clock()
        tracer = Tracer(clock)
        span = tracer.begin("a", 1)
        clock.now = 5
        tracer.end(span)
        clock.now = 50
        tracer.end(span)            # pinned: second close is a no-op
        assert span.t_end == 5
        assert tracer._open[1] == []

    def test_lifo_close_pops_constant_time(self):
        clock = _Clock()
        tracer = Tracer(clock)
        spans = [tracer.begin("k", 1) for _ in range(100)]
        for span in reversed(spans):
            tracer.end(span)
        assert tracer._open[1] == []
        assert all(s.t_end == 0 for s in spans)

    def test_stray_end_from_foreign_tracer_is_ignored(self):
        clock = _Clock()
        tracer = Tracer(clock)
        other = Tracer(clock)
        foreign = other.begin("x", 1)
        mine = tracer.begin("y", 1)
        tracer.end(foreign)         # not on tracer's stack: stack intact
        assert tracer._open[1] == [mine]


# -- full stack: real simulations ---------------------------------------------


class TestFullStackConservation:
    def test_fio_run_conserves_every_request(self, causal):
        from repro.fleet.scenarios import run_scenario
        run_scenario(FIO_PARAMS, seed=7)
        doc = causal_summary()
        assert doc["records"] >= FIO_PARAMS["total_ios"]
        assert doc["violations"] == 0
        for system in doc["systems"]:
            for op, agg in system["ops"].items():
                assert agg["total_ns"] == sum(agg["components_ns"].values())
                for record in agg["worst"]:
                    assert sum(record["components"].values()) == \
                        record["total_ns"], (op, record)

    def test_multi_tenant_blames_other_tenants(self, causal):
        from repro.fleet.scenarios import builtin_specs, run_scenario
        spec = builtin_specs()["noisy_neighbor"]
        params = dict(spec.base, scenario=spec.scenario,
                      arbitration="rr", placement="rotate")
        run_scenario(params, seed=11)
        doc = causal_summary()
        assert doc["violations"] == 0
        blamed = set()
        for system in doc["systems"]:
            for agg in system["ops"].values():
                blamed.update(agg["blame_ns"])
        assert any(label.startswith("ns:") or label == "bg"
                   for label in blamed), blamed

    def test_capture_is_bit_neutral(self):
        """The contract: enabling causal capture cannot move a result."""
        from repro.fleet.scenarios import run_scenario
        baseline = digest(run_scenario(FIO_PARAMS, seed=7))
        enable_causal()
        try:
            captured = digest(run_scenario(FIO_PARAMS, seed=7))
        finally:
            disable_causal()
        assert captured == baseline

    def test_off_by_default_and_summary_is_deterministic(self, causal):
        from repro.fleet.scenarios import run_scenario
        run_scenario(FIO_PARAMS, seed=7)
        first = json.dumps(causal_summary(), sort_keys=True)
        enable_causal()             # re-arm: fresh collectors
        run_scenario(FIO_PARAMS, seed=7)
        second = json.dumps(causal_summary(), sort_keys=True)
        assert first == second
        disable_causal()
        assert not causal_enabled()


# -- fleet: stores, reports, explain ------------------------------------------


@pytest.fixture(scope="module")
def causal_stores(tmp_path_factory):
    """The same tiny sweep run with --causal at jobs=1 and jobs=2."""
    stores = []
    for jobs in (1, 2):
        store = ResultStore(tmp_path_factory.mktemp(f"causal-j{jobs}"))
        run_sweep(TINY, store, jobs=jobs, journal=False, causal=True)
        stores.append(store)
    return stores


class TestFleetCausal:
    def test_results_embed_the_causal_payload(self, causal_stores):
        store = causal_stores[0]
        for job_hash in store.hashes():
            payload = store.get(job_hash)["result"]["causal"]
            assert payload["violations"] == 0
            assert payload["records"] > 0
            assert payload["components"] == list(COMPONENTS)

    def test_stores_byte_identical_across_jobs_counts(self, causal_stores):
        """The determinism pin: worker layout cannot leak into a store."""
        one, two = causal_stores
        assert one.hashes() == two.hashes()
        for job_hash in one.hashes():
            assert one.path_for(job_hash).read_bytes() == \
                two.path_for(job_hash).read_bytes(), job_hash

    def test_causal_store_differs_only_by_the_causal_key(self, causal_stores,
                                                         tmp_path):
        plain = ResultStore(tmp_path / "plain")
        run_sweep(TINY, plain, jobs=1, journal=False)
        store = causal_stores[0]
        for job_hash in plain.hashes():
            with_causal = store.get(job_hash)["result"]
            without = plain.get(job_hash)["result"]
            trimmed = {k: v for k, v in with_causal.items() if k != "causal"}
            assert trimmed == without

    def test_report_folds_in_component_table(self, causal_stores):
        doc = merge_results(TINY, causal_stores[0])
        assert "causal_components" in doc
        text = render_markdown(doc)
        assert "## Causal components (all jobs merged)" in text
        for op, entry in doc["causal_components"].items():
            assert entry["total_ns"] == sum(entry["components_ns"].values())

    def test_explain_ranks_components_deterministically(self, causal_stores,
                                                        tmp_path):
        store = causal_stores[0]
        a, b = [store.get(h) for h in store.hashes()]
        doc = explain(a, b)
        assert doc["schema"] == "repro.explain/1"
        assert doc["violations"] == {"a": 0, "b": 0}
        for op_entry in doc["ops"].values():
            ranks = [(-abs(c["d_p99_ns"]), -abs(c["d_mean_ns"]),
                      c["component"]) for c in op_entry["components"]]
            assert ranks == sorted(ranks)
        # rendering twice from freshly-loaded docs is byte-stable
        again = explain(store.get(store.hashes()[0]),
                        store.get(store.hashes()[1]))
        assert render_explain_markdown(doc) == render_explain_markdown(again)

    def test_explain_without_causal_capture_is_an_error(self, tmp_path):
        plain = ResultStore(tmp_path / "plain")
        run_sweep(TINY, plain, jobs=1, journal=False)
        a, b = [plain.get(h) for h in plain.hashes()]
        with pytest.raises(ValueError, match="--causal"):
            explain(a, b)

    def test_explain_report_formats(self, causal_stores, tmp_path):
        store = causal_stores[0]
        doc = explain(*[store.get(h) for h in store.hashes()])
        md = write_explain_report(tmp_path / "e.md", doc)
        html = write_explain_report(tmp_path / "e.html", doc)
        write_explain_report(tmp_path / "e.json", doc)
        assert md.startswith("# Run explain")
        assert html.startswith("<!DOCTYPE html>")
        reloaded = json.loads((tmp_path / "e.json").read_text())
        assert reloaded["schema"] == "repro.explain/1"

    def test_merged_ops_counts_add_up(self, causal_stores):
        store = causal_stores[0]
        payload = store.get(store.hashes()[0])["result"]["causal"]
        merged = merged_ops(payload)
        assert sum(agg["count"] for agg in merged.values()) == \
            payload["records"]

    def test_causal_report_renders_chains(self, causal_stores):
        payload = causal_stores[0].get(
            causal_stores[0].hashes()[0])["result"]["causal"]
        text = render_causal_markdown(payload, "forensics")
        assert text.startswith("# forensics")
        assert "Worst" in text


class TestCliCausal:
    def test_run_one_job_rearms_per_job(self):
        enable_causal()
        try:
            job = _job(dict(FIO_PARAMS))
            _hash, first = run_one_job(job, causal=True)
            _hash, second = run_one_job(job, causal=True)
            # capture re-arms per job: summaries identical, not cumulative
            assert first["causal"] == second["causal"]
        finally:
            disable_causal()
        assert not causal_enabled()

    def test_run_one_job_owns_switch_when_not_armed(self):
        job = _job(dict(FIO_PARAMS))
        _hash, result = run_one_job(job, causal=True)
        assert result["causal"]["violations"] == 0
        assert not causal_enabled()     # released its own arm
