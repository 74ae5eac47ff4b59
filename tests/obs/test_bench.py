"""Tests for the pinned benchmark suite and its report schema."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    MEMORY_WORKLOADS,
    SCALES,
    compare_bench_reports,
    measure_disabled_overhead,
    measure_memory_ceilings,
    render_bench_comparison,
    render_bench_report,
    run_bench_suite,
    validate_bench_report,
    write_bench_report,
)
from repro.obs.recorder import OBS

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def tiny_report():
    return run_bench_suite("tiny", seed=0, repeats=1)


class TestBenchSuite:
    def test_report_is_schema_valid(self, tiny_report):
        validate_bench_report(tiny_report)
        # Metadata plus exactly the sections a gate reads.
        assert list(tiny_report) == [
            "schema_version", "kind", "date", "created", "scale", "seed",
            "environment", "provenance", "workloads", "overhead", "memory"]
        assert tiny_report["schema_version"] == BENCH_SCHEMA_VERSION
        assert tiny_report["kind"] == "bench-report"
        assert tiny_report["scale"] == "tiny"

    def test_every_workload_ran(self, tiny_report):
        names = {w["name"] for w in tiny_report["workloads"]}
        assert names == {"mc.fast", "mc.checkpointed", "mc.hardware",
                         "faults.campaign", "replay.trace",
                         "pads.traverse", "checkpoint.roundtrip",
                         "svc.loadgen", "svc.fleet",
                         "capacity.estimate"}
        for workload in tiny_report["workloads"]:
            assert workload["units"] > 0
            assert workload["wall_s"]["min"] > 0
            assert workload["throughput_per_s"] > 0

    def test_report_is_json_serializable(self, tiny_report):
        assert json.loads(json.dumps(tiny_report)) == tiny_report

    def test_write_and_render(self, tiny_report, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench_report(tiny_report, str(path))
        loaded = json.loads(path.read_text())
        validate_bench_report(loaded)
        text = render_bench_report(tiny_report)
        assert "mc.fast" in text
        assert "observability-disabled overhead" in text

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench_suite("galactic")

    def test_scales_share_parameter_keys(self):
        keys = {frozenset(params) for params in SCALES.values()}
        assert len(keys) == 1


class TestOverheadMeasurement:
    def test_reports_paired_minima(self):
        result = measure_disabled_overhead(repeats=2, trials=20, seed=0)
        assert result["hot_path"] == "simulate_access_bounds"
        assert result["baseline_min_s"] > 0
        assert result["instrumented_disabled_min_s"] > 0
        expected = (result["instrumented_disabled_min_s"]
                    - result["baseline_min_s"]) \
            / result["baseline_min_s"] * 100.0
        assert result["overhead_pct"] == pytest.approx(expected)

    def test_restores_enabled_state(self):
        OBS.enabled = True
        try:
            measure_disabled_overhead(repeats=1, trials=10, seed=0)
            assert OBS.enabled is True
        finally:
            OBS.enabled = False

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            measure_disabled_overhead(repeats=0)


class TestValidator:
    def test_rejects_non_reports(self):
        with pytest.raises(ConfigurationError):
            validate_bench_report([])
        with pytest.raises(ConfigurationError):
            validate_bench_report({"kind": "bench-report"})

    def test_rejects_missing_workload_keys(self, tiny_report):
        broken = json.loads(json.dumps(tiny_report))
        del broken["workloads"][0]["wall_s"]["median"]
        with pytest.raises(ConfigurationError):
            validate_bench_report(broken)

    def test_rejects_missing_overhead_keys(self, tiny_report):
        broken = json.loads(json.dumps(tiny_report))
        del broken["overhead"]["overhead_pct"]
        with pytest.raises(ConfigurationError):
            validate_bench_report(broken)

    def test_refuses_other_schema_versions(self, tiny_report):
        # Schema 5 carried the since-deleted engine and capacity
        # sections, schema 6 the scaling, service and fleet ones; only
        # the schema this module writes is read.
        v5 = json.loads(json.dumps(tiny_report))
        v5["schema_version"] = 5
        v5["engine"] = {"workload": "mc.hardware", "speedup": 1.0}
        v5["capacity"] = {"gate_ok": True}
        v6 = json.loads(json.dumps(tiny_report))
        v6["schema_version"] = 6
        v6["scaling"] = {"workload": "mc.hardware.sharded", "trials": 16,
                         "host_cpus": 2, "configs": []}
        v6["service"] = {"workload": "svc.loadgen", "served": 12}
        v6["fleet"] = {"workload": "svc.fleet", "shards": 2}
        for old in (v5, v6):
            version = old["schema_version"]
            with pytest.raises(
                    ConfigurationError,
                    match=f"schema {version} is not {BENCH_SCHEMA_VERSION}"):
                validate_bench_report(old)
            with pytest.raises(ConfigurationError,
                               match=f"schema {version}"):
                compare_bench_reports(old, tiny_report)


class TestMemorySection:
    def test_report_carries_peak_rss_ceilings(self, tiny_report):
        memory = tiny_report["memory"]
        assert [row["name"] for row in memory["workloads"]] \
            == list(MEMORY_WORKLOADS)
        for row in memory["workloads"]:
            assert row["peak_rss_bytes"] > 0
            assert row["peak_rss_mib"] \
                == pytest.approx(row["peak_rss_bytes"] / 2**20)

    def test_render_includes_the_ceilings(self, tiny_report):
        text = render_bench_report(tiny_report)
        assert "peak RSS ceilings" in text

    def test_unknown_memory_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_memory_ceilings("tiny", workloads=("brand.new",))
        with pytest.raises(ConfigurationError):
            measure_memory_ceilings("galactic")

    def test_schema_3_requires_both_sections(self, tiny_report):
        broken = json.loads(json.dumps(tiny_report))
        del broken["memory"]
        with pytest.raises(ConfigurationError):
            validate_bench_report(broken)
        broken = json.loads(json.dumps(tiny_report))
        del broken["memory"]["workloads"][0]["peak_rss_bytes"]
        with pytest.raises(ConfigurationError):
            validate_bench_report(broken)


class TestCompare:
    def test_self_comparison_has_no_regressions(self, tiny_report):
        comparison = compare_bench_reports(tiny_report, tiny_report)
        assert comparison["regressions"] == []
        assert comparison["missing_in_candidate"] == []
        names = {row["name"] for row in comparison["rows"]}
        assert "mc.hardware" in names
        for row in comparison["rows"]:
            assert row["delta_pct"] == pytest.approx(0.0)
            assert row["regressed"] is False

    def test_regression_beyond_threshold_is_flagged(self, tiny_report):
        slower = json.loads(json.dumps(tiny_report))
        slower["workloads"][0]["throughput_per_s"] *= 0.5
        comparison = compare_bench_reports(tiny_report, slower,
                                           threshold=0.2)
        assert comparison["regressions"] \
            == [tiny_report["workloads"][0]["name"]]
        text = render_bench_comparison(comparison)
        assert "REGRESSED" in text

    def test_slowdown_within_threshold_passes(self, tiny_report):
        slower = json.loads(json.dumps(tiny_report))
        for workload in slower["workloads"]:
            workload["throughput_per_s"] *= 0.9
        comparison = compare_bench_reports(tiny_report, slower,
                                           threshold=0.2)
        assert comparison["regressions"] == []

    def test_workload_set_drift_is_reported_not_scored(self, tiny_report):
        candidate = json.loads(json.dumps(tiny_report))
        renamed = candidate["workloads"][0]
        old_name = renamed["name"]
        renamed["name"] = "brand.new"
        comparison = compare_bench_reports(tiny_report, candidate)
        assert comparison["missing_in_candidate"] == [old_name]
        assert comparison["new_in_candidate"] == ["brand.new"]
        assert comparison["regressions"] == []

    def test_cross_scale_comparison_rejected(self, tiny_report):
        other = json.loads(json.dumps(tiny_report))
        other["scale"] = "smoke"
        with pytest.raises(ConfigurationError):
            compare_bench_reports(tiny_report, other)

    def test_threshold_validated(self, tiny_report):
        with pytest.raises(ConfigurationError):
            compare_bench_reports(tiny_report, tiny_report, threshold=0.0)

    def test_memory_growth_beyond_threshold_is_flagged(self, tiny_report):
        fatter = json.loads(json.dumps(tiny_report))
        fatter["memory"]["workloads"][0]["peak_rss_bytes"] *= 2
        comparison = compare_bench_reports(tiny_report, fatter,
                                           threshold=0.2)
        assert comparison["regressions"] == [f"mem.{MEMORY_WORKLOADS[0]}"]
        text = render_bench_comparison(comparison)
        assert "peak RSS ceilings" in text
        assert "REGRESSED" in text

    def test_memory_shrink_is_never_a_regression(self, tiny_report):
        slimmer = json.loads(json.dumps(tiny_report))
        for row in slimmer["memory"]["workloads"]:
            row["peak_rss_bytes"] //= 2
        comparison = compare_bench_reports(tiny_report, slimmer,
                                           threshold=0.2)
        assert comparison["regressions"] == []

    def test_comparison_is_json_serializable(self, tiny_report):
        comparison = compare_bench_reports(tiny_report, tiny_report)
        assert json.loads(json.dumps(comparison)) == comparison
