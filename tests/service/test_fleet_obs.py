"""Live-fleet telemetry: poll real shards, merge, render, survive kills.

Real subprocess shards under a :class:`FleetSupervisor` (marked slow).
Pins the end-to-end half of what ``tests/obs/test_aggregate.py`` pins
synthetically: shards spawned with ``--obs-metrics`` answer the
``metrics`` op with registries that merge into fleet totals, per-tenant
wear gauges are live engine values, and a SIGKILL'd shard shows up as a
restart in the next snapshot.
"""

import asyncio

import pytest

from repro.obs.aggregate import collect_fleet_metrics, render_fleet_top
from repro.obs.export import render_prometheus
from repro.obs.recorder import OBS
from repro.service.client import RetryPolicy, run_loadgen
from repro.service.supervisor import FleetSupervisor

pytestmark = pytest.mark.slow

TENANTS = 6
REQUESTS = 48


@pytest.fixture(autouse=True)
def clean_obs():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="class")
def fleet(tmp_path_factory):
    """One 2-shard fleet, loaded once, shared across a test class."""
    root = str(tmp_path_factory.mktemp("fleet-obs"))
    with FleetSupervisor(root, 2, window_s=0.001, snapshot_every=8,
                         max_restarts=5,
                         restart_backoff_s=0.02) as supervisor:
        stats = asyncio.run(run_loadgen(
            supervisor.map_path, tenants=TENANTS, requests=REQUESTS,
            concurrency=4, seed=3,
            retry=RetryPolicy(retries=6, base_s=0.02, cap_s=0.3)))
        assert stats["served"] > 0
        yield supervisor, stats


class TestFleetSnapshot:
    def test_snapshot_merges_every_live_shard(self, fleet):
        supervisor, stats = fleet
        snapshot = supervisor.fleet_snapshot()
        totals = snapshot["totals"]
        assert totals["shards"] == 2
        assert totals["alive"] == 2
        # Every request the loadgen fired is in some shard's counters,
        # and the merged registry saw each exactly once.
        assert totals["requests"] >= REQUESTS
        assert snapshot["merged"]["counters"]["svc.requests"] \
            == sum((shard.get("metrics") or {}).get(
                       "counters", {}).get("svc.requests", 0)
                   for shard in snapshot["shards"])
        merged_latency = snapshot["merged"]["histograms"][
            "svc.request_latency_s"]
        assert merged_latency["count"] >= REQUESTS
        assert merged_latency["p50"] is not None

    def test_tenant_wear_gauges_are_live_and_nonzero(self, fleet):
        supervisor, _ = fleet
        snapshot = supervisor.fleet_snapshot()
        tenants = snapshot["tenants"]
        assert len(tenants) == TENANTS
        assert {gauges["shard"] for gauges in tenants.values()} \
            == {0, 1}
        for name, gauges in tenants.items():
            assert gauges["wear_cycles"] > 0, name
            assert gauges["served"] > 0, name
            assert 0.0 < gauges["lifetime_used_fraction"] <= 1.0

    def test_shard_health_fields_present(self, fleet):
        supervisor, _ = fleet
        snapshot = supervisor.fleet_snapshot()
        for shard in snapshot["shards"]:
            assert shard["pid"] > 0
            assert shard["peak_rss_bytes"] > 4 * 2**20
            assert shard["uptime_s"] > 0
            assert shard["obs_enabled"] is True

    def test_supervisor_gauges_recorded_when_obs_on(self, fleet):
        supervisor, _ = fleet
        OBS.configure(enabled=True)
        supervisor.fleet_snapshot()
        registry = OBS.metrics
        assert registry.counters["fleet.snapshots"] == 1
        assert registry.gauges["fleet.shard0.up"] == 1.0
        assert registry.gauges["fleet.shard0.peak_rss_bytes"] > 0

    def test_renders_compose_from_live_snapshot(self, fleet):
        supervisor, _ = fleet
        snapshot = supervisor.fleet_snapshot()
        top = render_fleet_top(snapshot)
        assert "fleet: 2/2 shards up" in top
        assert "tenant-000" in top
        prom = render_prometheus(snapshot)
        assert 'repro_shard_up{shard="0"} 1' in prom
        assert 'repro_shard_up{shard="1"} 1' in prom
        assert "repro_svc_requests_total" in prom


class TestRestartVisibility:
    def test_kill_then_poll_shows_in_snapshot_and_map(self, tmp_path):
        with FleetSupervisor(str(tmp_path / "fleet"), 2,
                             window_s=0.001, snapshot_every=8,
                             max_restarts=5,
                             restart_backoff_s=0.02) as supervisor:
            supervisor.kill_shard(1)
            assert supervisor.poll() == [1]
            snapshot = supervisor.fleet_snapshot()
            assert snapshot["totals"]["restarts"] == 1
            assert snapshot["shards"][1]["restarts"] == 1
            assert snapshot["shards"][1]["alive"] is True

            # The external-observer path reads restarts from the
            # republished map, no supervisor handle needed.
            external = collect_fleet_metrics(supervisor.map_path)
            assert external["shards"][1]["restarts"] == 1

    def test_dead_shard_degrades_to_down_row(self, tmp_path):
        with FleetSupervisor(str(tmp_path / "fleet"), 2,
                             window_s=0.001, snapshot_every=8,
                             max_restarts=5) as supervisor:
            supervisor.kill_shard(0)
            snapshot = supervisor.fleet_snapshot()
            assert snapshot["totals"]["alive"] == 1
            assert snapshot["shards"][0]["alive"] is False
            assert snapshot["shards"][0]["error"]
            assert "DOWN" in render_fleet_top(snapshot)
