"""Export formats: Prometheus exposition, timeline assembly, RSS probe."""

import json
import os
import subprocess
import sys

from repro.obs.export import (
    _metric_name,
    follow_trace,
    merge_timelines,
    peak_rss_bytes,
    read_trace_events,
    read_wal_events,
    render_prometheus,
    write_timeline,
)
from repro.obs.recorder import MetricsRegistry


_RSS_CHILD = """\
from repro.obs.export import peak_rss_bytes
print(peak_rss_bytes())
"""


class TestPeakRss:
    def test_positive_and_plausible(self):
        rss = peak_rss_bytes()
        # A running CPython interpreter occupies at least a few MiB.
        assert rss > 4 * 2**20

    def test_spawned_child_reports_its_own_peak(self):
        # A child's ru_maxrss starts at its parent's peak on Linux; the
        # probe must report the child's memory, not this ballast.
        ballast = bytearray(b"\x01") * (400 * 2**20)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _RSS_CHILD],
                              capture_output=True, text=True, env=env,
                              check=True, timeout=60)
        del ballast
        child_rss = int(proc.stdout.strip())
        assert 4 * 2**20 < child_rss < 200 * 2**20


class TestMetricNames:
    def test_sanitization(self):
        assert _metric_name("svc.queue_wait_s") == "repro_svc_queue_wait_s"
        assert _metric_name("fleet.shard0.up") == "repro_fleet_shard0_up"
        assert _metric_name("9lives") == "repro__9lives"


def _snapshot_with_samples():
    registry = MetricsRegistry()
    registry.inc("svc.requests", 5)
    registry.set_gauge("svc.depth", 2)
    for value in (0.001, 0.002, 0.004):
        registry.observe("svc.request_latency_s", value)
    return {
        "schema_version": 1,
        "kind": "fleet-snapshot",
        "wall_time": 123.0,
        "totals": {"shards": 2, "alive": 1, "requests": 5},
        "shards": [
            {"index": 0, "alive": True, "restarts": 1, "pid": 42,
             "peak_rss_bytes": 1000, "uptime_s": 2.5,
             "recovered_records": 3,
             "service": {"requests": 5, "rounds": 2, "queue_depth": 0}},
            {"index": 1, "alive": False, "restarts": 0,
             "error": "unreachable"},
        ],
        "tenants": {"tenant-000": {
            "shard": 0, "remaining_capacity": 17, "wear_cycles": 4,
            "lifetime_used_fraction": 0.25, "attempts": 5, "served": 4,
            "exhausted": False, "current_copy": 0, "dead_banks": 1,
            "remaining_bank_budgets": [6, 5, 6]}},
        "merged": registry.snapshot(),
    }


class TestRenderPrometheus:
    def test_exposition_covers_every_layer(self):
        text = render_prometheus(_snapshot_with_samples())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_fleet_shards 2" in lines
        assert 'repro_shard_up{shard="0"} 1' in lines
        assert 'repro_shard_up{shard="1"} 0' in lines
        assert 'repro_shard_restarts{shard="0"} 1' in lines
        assert 'repro_shard_peak_rss_bytes{shard="0"} 1000' in lines
        assert ('repro_tenant_remaining_capacity'
                '{tenant="tenant-000",shard="0"} 17') in lines
        assert ('repro_tenant_remaining_bank_budget'
                '{tenant="tenant-000",shard="0",copy="1"} 5') in lines
        assert "repro_svc_requests_total 5" in lines
        assert "repro_svc_depth 2" in lines
        assert "repro_svc_request_latency_s_count 3" in lines
        quantiles = [line for line in lines
                     if line.startswith(
                         'repro_svc_request_latency_s{quantile=')]
        assert len(quantiles) == 3

    def test_dead_shard_and_empty_histogram_degrade(self):
        text = render_prometheus({
            "totals": {}, "shards": [], "tenants": {},
            "merged": {"counters": {}, "gauges": {},
                       "histograms": {"empty": {"count": 0}}}})
        assert "repro_empty_count 0" in text
        assert "repro_empty_sum" not in text


class TestTimelineReaders:
    def test_tolerates_torn_and_missing_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a", "wall_time": 1.0}\n'
                        "not json\n"
                        '{"name": "b", "wall_time"')
        events = read_trace_events(str(path), source="s", shard=3)
        assert [event["name"] for event in events] == ["a"]
        assert events[0]["source"] == "s" and events[0]["shard"] == 3
        assert read_trace_events(str(tmp_path / "absent.jsonl")) == []

    def test_wal_events_span_archive_and_active(self, tmp_path):
        ledger = tmp_path / "ledger"
        archive = ledger / "archive"
        archive.mkdir(parents=True)
        (archive / "segment-000001.jsonl").write_text(
            json.dumps({"op": "provision", "tenant": "t", "seq": 1}) + "\n"
            + json.dumps({"op": "access", "tenant": "t", "rid": "r-1",
                          "trace": "tr-1", "seq": 2}) + "\n")
        (ledger / "wal.jsonl").write_text(
            json.dumps({"op": "access", "tenant": "t", "rid": "r-2",
                        "trace": "tr-2", "seq": 3}) + "\n"
            + '{"torn tail')
        events = read_wal_events(str(ledger), shard=1)
        assert [event["seq"] for event in events] == [1, 2, 3]
        assert all(event["kind"] == "wal" for event in events)
        assert events[1]["trace"] == "tr-1"
        assert events[2]["shard"] == 1


class TestMergeAndFollow:
    def _timeline(self):
        trace_events = [
            {"name": "client.request", "wall_time": 10.0,
             "attrs": {"trace": "tr-7", "tenant": "t"}},
            {"name": "svc.round", "wall_time": 11.0, "shard": 0,
             "attrs": {"first_seq": 5, "last_seq": 6,
                       "traces": ["tr-7"]}},
        ]
        wal_events = [
            {"kind": "wal", "seq": 5, "op": "access", "tenant": "t",
             "trace": "tr-7", "shard": 0},
            {"kind": "wal", "seq": 2, "op": "provision", "tenant": "t",
             "shard": 0},
        ]
        return merge_timelines(trace_events, wal_events)

    def test_wal_records_inherit_round_wall_time(self):
        merged = self._timeline()
        covered = next(event for event in merged
                       if event.get("seq") == 5)
        assert covered["wall_time"] == 11.0
        # Uncovered records sink to the epoch but keep seq order.
        assert merged[0]["seq"] == 2
        assert "wall_time" not in merged[0]

    def test_follow_trace_reconstructs_full_path(self):
        hops = follow_trace(self._timeline(), "tr-7")
        kinds = [hop.get("name") or hop.get("kind") for hop in hops]
        assert kinds == ["client.request", "svc.round", "wal"]
        assert follow_trace(self._timeline(), "tr-unknown") == []

    def test_write_timeline_round_trips(self, tmp_path):
        merged = self._timeline()
        out = tmp_path / "timeline.jsonl"
        count = write_timeline(merged, str(out))
        assert count == len(merged)
        lines = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert lines == merged


class TestCapacityGauges:
    def _snapshot_with_capacity(self):
        snapshot = _snapshot_with_samples()
        snapshot["capacity"] = {
            "estimate": {"alpha": 9.1, "beta": 5.2,
                         "observations": 40, "failures": 7},
            "forecasts": {"tenant-000": {
                "remaining_mean": 12.5, "remaining_median": 12.0,
                "p_exhaust": 0.75, "interval": [4.0, 21.0]}},
            "at_risk": ["tenant-000"],
            "remaining_mean_total": 12.5,
            "horizon": 10,
        }
        return snapshot

    def test_fleet_and_tenant_forecast_samples(self):
        lines = render_prometheus(
            self._snapshot_with_capacity()).splitlines()
        assert "repro_fleet_capacity_alpha 9.1" in lines
        assert "repro_fleet_capacity_failures 7" in lines
        assert "repro_fleet_capacity_at_risk 1" in lines
        assert "repro_fleet_capacity_remaining_mean_total 12.5" in lines
        assert ('repro_tenant_forecast_p_exhaust'
                '{tenant="tenant-000"} 0.75') in lines
        assert ('repro_tenant_forecast_interval_lo'
                '{tenant="tenant-000"} 4') in lines
        assert ('repro_tenant_forecast_interval_hi'
                '{tenant="tenant-000"} 21') in lines

    def test_absent_capacity_emits_no_capacity_samples(self):
        text = render_prometheus(_snapshot_with_samples())
        assert "capacity_alpha" not in text
        assert "forecast" not in text
