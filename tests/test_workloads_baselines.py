"""Tests for workload generators, baseline simulators and analysis."""

import pytest

from repro.baselines.models import (
    FlashSimModel,
    MQSimModel,
    SSDExtensionModel,
    SSDSimModel,
)
from repro.baselines.reference import (
    REAL_DEVICES,
    accuracy,
    error_rate,
    reference_at,
    reference_curve,
)
from repro.baselines.replay import ClosedLoopReplayer
from repro.core import presets
from repro.experiments.featurematrix import (
    SIMULATOR_FEATURES,
    amber_feature_count,
    feature_headers,
    feature_table,
)
from repro.experiments.formatting import format_series, format_table
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS, EnterpriseGenerator
from repro.workloads.synthetic import blocksize_sweep, depth_sweep, standard_patterns


class TestEnterpriseGenerators:
    @pytest.mark.parametrize("name", list(ENTERPRISE_WORKLOADS))
    def test_statistics_match_table3(self, name):
        spec = ENTERPRISE_WORKLOADS[name]
        generator = EnterpriseGenerator(spec, region_sectors=1 << 22, seed=2)
        stats = generator.sample_statistics(4000)
        assert stats["read_ratio"] == pytest.approx(spec.read_ratio,
                                                    abs=0.05)
        assert stats["avg_read_kb"] == pytest.approx(spec.avg_read_kb,
                                                     rel=0.25)
        assert stats["avg_write_kb"] == pytest.approx(spec.avg_write_kb,
                                                      rel=0.25)
        assert stats["random_read"] == pytest.approx(spec.random_read,
                                                     abs=0.08)
        assert stats["random_write"] == pytest.approx(spec.random_write,
                                                      abs=0.08)

    def test_deterministic_given_seed(self):
        spec = ENTERPRISE_WORKLOADS["CFS"]
        a = EnterpriseGenerator(spec, 1 << 20, seed=9)
        b = EnterpriseGenerator(spec, 1 << 20, seed=9)
        for _ in range(50):
            ra, rb = a.next_request(), b.next_request()
            assert (ra.kind, ra.slba, ra.nsectors) == \
                (rb.kind, rb.slba, rb.nsectors)

    def test_requests_stay_in_region(self):
        spec = ENTERPRISE_WORKLOADS["DAP"]
        generator = EnterpriseGenerator(spec, region_sectors=65536, seed=3)
        for _ in range(300):
            request = generator.next_request()
            assert 0 <= request.slba
            assert request.slba + request.nsectors <= 65536

    def test_too_small_region_rejected(self):
        with pytest.raises(ValueError):
            EnterpriseGenerator(ENTERPRISE_WORKLOADS["24HR"], 100)


class TestSyntheticWorkloads:
    def test_standard_patterns_cover_grid(self):
        jobs = standard_patterns()
        assert set(jobs) == {"seqread", "randread", "seqwrite", "randwrite"}
        assert jobs["randwrite"].rw == "randwrite"

    def test_depth_sweep(self):
        jobs = depth_sweep("randread", [1, 4, 16])
        assert [j.iodepth for j in jobs] == [1, 4, 16]

    def test_blocksize_sweep(self):
        jobs = blocksize_sweep("seqwrite", [4096, 65536])
        assert [j.bs for j in jobs] == [4096, 65536]


class TestBaselineModels:
    def _replay(self, model_cls, pattern="randread", depth=8, n=150):
        config = presets.intel750()
        replayer = ClosedLoopReplayer(model_cls(config))
        return replayer.run(pattern, bs=4096, iodepth=depth, n_ios=n)

    def test_flashsim_bandwidth_flat_with_depth(self):
        shallow = self._replay(FlashSimModel, depth=1)
        deep = self._replay(FlashSimModel, depth=16)
        assert deep.bandwidth_mbps == pytest.approx(
            shallow.bandwidth_mbps, rel=0.2)
        assert deep.mean_latency_us > 4 * shallow.mean_latency_us

    def test_ssdsim_scales_linearly(self):
        shallow = self._replay(SSDSimModel, depth=1)
        deep = self._replay(SSDSimModel, depth=16)
        assert deep.bandwidth_mbps > 8 * shallow.bandwidth_mbps

    def test_ssdext_saturates_immediately(self):
        mid = self._replay(SSDExtensionModel, depth=8)
        deep = self._replay(SSDExtensionModel, depth=32)
        assert deep.bandwidth_mbps == pytest.approx(mid.bandwidth_mbps,
                                                    rel=0.15)

    def test_mqsim_write_cache_never_saturates(self):
        shallow = self._replay(MQSimModel, "randwrite", depth=1)
        deep = self._replay(MQSimModel, "randwrite", depth=16)
        assert deep.bandwidth_mbps > 3 * shallow.bandwidth_mbps

    def test_replayer_counts_events(self):
        result = self._replay(MQSimModel, n=50)
        assert result.events_processed > 0
        assert result.wall_seconds > 0


class TestReferenceCurves:
    def test_all_devices_have_all_patterns(self):
        for device in REAL_DEVICES:
            for pattern in ("seqread", "randread", "seqwrite", "randwrite"):
                curve = reference_curve(device, pattern)
                assert len(curve) == 7
                lat = reference_curve(device, pattern, "latency")
                assert all(v > 0 for v in lat.values())

    def test_interpolation_between_depths(self):
        at8 = reference_at("intel750", "seqread", 8)
        at16 = reference_at("intel750", "seqread", 16)
        at12 = reference_at("intel750", "seqread", 12)
        assert min(at8, at16) <= at12 <= max(at8, at16)

    def test_clamping_outside_range(self):
        assert reference_at("intel750", "seqread", 64) == \
            reference_at("intel750", "seqread", 32)

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            reference_curve("optane", "seqread")

    def test_error_and_accuracy(self):
        assert error_rate(100, 80) == pytest.approx(0.2)
        assert accuracy(100, 80) == pytest.approx(0.8)
        assert accuracy(100, 500) == 0.0
        with pytest.raises(ValueError):
            error_rate(0, 10)


class TestAnalysis:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.123]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_format_series_merges_x(self):
        text = format_series({"s1": {1: 10}, "s2": {2: 20}}, "x")
        assert "s1" in text and "s2" in text

    def test_feature_matrix_shape(self):
        rows = feature_table()
        headers = feature_headers()
        assert all(len(row) == len(headers) for row in rows)
        assert amber_feature_count() == len(rows)

    def test_amber_strictly_supersets_baselines(self):
        amber = SIMULATOR_FEATURES["Amber"]
        for name, features in SIMULATOR_FEATURES.items():
            if name != "Amber":
                assert features < amber, name
