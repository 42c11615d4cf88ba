"""Fast smoke tests for the experiment drivers (full runs live in
benchmarks/)."""

from repro.experiments import fig03_04_baselines, fig16_simspeed, tables


class TestTables:
    def test_run_and_render(self):
        result = tables.run(quick=True)
        text = tables.render(result)
        assert "Table I" in text and "Table IV" in text
        assert "Intel i7-4790K" in text

    def test_table3_generators_validate(self):
        result = tables.run(quick=True)
        for name, data in result["table3"].items():
            spec = data["spec"]
            gen = data["generated"]
            assert abs(gen["read_ratio"] * 100
                       - spec["Read ratio (%)"]) < 10, name


class TestFig0304:
    def test_trend_classes(self):
        result = fig03_04_baselines.run(quick=True)
        trends = result["trend_classes"]
        assert trends["flashsim"] == "constant"
        assert trends["mqsim"] == "linear"
        text = fig03_04_baselines.render(result)
        assert "Fig 3" in text and "Fig 4" in text

    def test_every_pattern_present(self):
        result = fig03_04_baselines.run(quick=True)
        assert set(result["patterns"]) == {"seqread", "randread",
                                           "seqwrite", "randwrite"}
        for per_sim in result["patterns"].values():
            assert "real-device" in per_sim
            for curve in per_sim.values():
                for point in curve.values():
                    assert point["bandwidth_mbps"] > 0


class TestFig16:
    def test_full_system_costs_the_most_events(self):
        # the ordering benchmarks/test_fig16.py asserts on the full run
        sims = fig16_simspeed.run(quick=True)["simulators"]
        full = sims["amber-fullsystem"]["events"]
        assert full > sims["amber-standalone"]["events"]
        for name in ("flashsim", "ssd-extension", "ssdsim", "mqsim"):
            assert full > sims[name]["events"], name
        for name, data in sims.items():
            assert data["wall_seconds"] > 0, name
            assert data["events"] > 0, name
