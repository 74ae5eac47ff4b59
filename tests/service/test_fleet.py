"""Fleet routing: tenant hashing, the fleet map, and retry discipline.

These are the fast, in-process halves of the fleet layer.  The
subprocess halves - supervision, failover, chaos - live in
``tests/service/test_supervisor.py`` and ``tests/service/test_chaos.py``.
"""

import asyncio
import json
import random
import socket
import time

import pytest

from repro.errors import ConfigurationError
from repro.service.client import (
    RetryPolicy,
    run_loadgen,
    split_workers,
    tenant_population,
)
from repro.service.fleet import (
    FLEET_MAP_NAME,
    FleetClient,
    read_fleet_map,
    shard_index,
    write_fleet_map,
)
from repro.service.server import ServiceConfig, WearService


class TestShardIndex:
    def test_placement_is_pinned(self):
        # The placement function IS the protocol: any change strands
        # every existing tenant's wear history on the wrong shard.
        assert shard_index("tenant-000", 2) == 1
        assert shard_index("tenant-001", 2) == 1
        assert shard_index("tenant-003", 2) == 1
        assert shard_index("tenant-003", 3) == 0
        assert shard_index("tenant-000", 3) == 1

    def test_stable_across_calls(self):
        for shards in (1, 2, 5, 16):
            for index in range(32):
                tenant = f"tenant-{index:03d}"
                assert (shard_index(tenant, shards)
                        == shard_index(tenant, shards))
                assert 0 <= shard_index(tenant, shards) < shards

    def test_single_shard_owns_everything(self):
        assert shard_index("anything", 1) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_index("t", 0)

    def test_spreads_tenants(self):
        owners = {shard_index(f"tenant-{i:03d}", 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}


class TestFleetMap:
    def _entries(self, tmp_path, count=2):
        return [{"index": index,
                 "ledger_dir": str(tmp_path / f"shard-{index}" / "ledger"),
                 "ready_file": str(tmp_path / f"shard-{index}" / "ready")}
                for index in range(count)]

    def test_round_trips(self, tmp_path):
        path = str(tmp_path / FLEET_MAP_NAME)
        entries = self._entries(tmp_path)
        write_fleet_map(path, entries)
        assert read_fleet_map(path) == entries

    def test_read_orders_by_index(self, tmp_path):
        path = str(tmp_path / FLEET_MAP_NAME)
        entries = self._entries(tmp_path, 3)
        write_fleet_map(path, list(reversed(entries)))
        assert [s["index"] for s in read_fleet_map(path)] == [0, 1, 2]

    def test_non_contiguous_indices_rejected(self, tmp_path):
        path = str(tmp_path / FLEET_MAP_NAME)
        write_fleet_map(path, [{"index": 0}, {"index": 2}])
        with pytest.raises(ConfigurationError):
            read_fleet_map(path)

    def test_empty_map_rejected(self, tmp_path):
        path = str(tmp_path / FLEET_MAP_NAME)
        write_fleet_map(path, [])
        with pytest.raises(ConfigurationError):
            read_fleet_map(path)

    def test_missing_map_times_out(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_fleet_map(str(tmp_path / "never.json"), timeout_s=0.1)

    def test_write_is_atomic(self, tmp_path):
        # tmp + rename: no partially-written map is ever observable,
        # and no tmp litter survives the write.
        path = str(tmp_path / FLEET_MAP_NAME)
        write_fleet_map(path, self._entries(tmp_path))
        write_fleet_map(path, self._entries(tmp_path, 3))
        assert len(read_fleet_map(path)) == 3
        leftovers = [name for name in tmp_path.iterdir()
                     if ".tmp." in name.name]
        assert not leftovers


class TestRetryPolicy:
    def test_delays_are_capped_and_jittered(self):
        policy = RetryPolicy(retries=8, base_s=0.01, cap_s=0.05)
        rng = random.Random(3)
        for attempt in range(10):
            delay = policy.delay_s(attempt, rng)
            assert 0.0 <= delay <= 0.05
        # Early attempts stay under the uncapped exponential ceiling.
        assert policy.delay_s(0, rng) <= 0.01
        assert policy.delay_s(1, rng) <= 0.02

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.5, cap_s=0.1)

    def test_zero_retries_is_a_valid_budget(self):
        assert RetryPolicy(retries=0).retries == 0


class TestFleetClientUnavailable:
    def _dead_fleet(self, tmp_path):
        """A one-shard map whose ready file names a port nobody owns."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        ready = tmp_path / "ready.json"
        ready.write_text(json.dumps({"host": "127.0.0.1",
                                     "port": dead_port}))
        path = str(tmp_path / FLEET_MAP_NAME)
        write_fleet_map(path, [{"index": 0,
                                "ledger_dir": str(tmp_path / "ledger"),
                                "ready_file": str(ready)}])
        return path

    def test_budget_exhaustion_is_a_structured_denial(self, tmp_path):
        path = self._dead_fleet(tmp_path)
        client = FleetClient(
            path, retry=RetryPolicy(retries=2, base_s=0.001, cap_s=0.002))

        async def scenario():
            try:
                return await client.access("tenant-000", rid="r-0")
            finally:
                await client.close()

        response = asyncio.run(scenario())
        assert response["status"] == "unavailable"
        assert response["shard"] == 0
        # Every failed attempt dropped the connection and re-read the
        # ready file - the failover path, exercised to exhaustion.
        assert client.reconnects == 3

    def test_no_retry_policy_means_one_attempt(self, tmp_path):
        client = FleetClient(self._dead_fleet(tmp_path), retry=None)

        async def scenario():
            try:
                return await client.access("tenant-000", rid="r-0")
            finally:
                await client.close()

        assert asyncio.run(scenario())["status"] == "unavailable"
        assert client.reconnects == 1

    def test_provision_requires_a_tenant(self, tmp_path):
        client = FleetClient(self._dead_fleet(tmp_path))
        with pytest.raises(ConfigurationError):
            asyncio.run(client.provision(alpha=9.0))

    def test_missing_ready_file_does_not_stall_other_shards(self, tmp_path):
        """While one request waits for a shard's ready file, a request
        to a live shard on the same event loop is still answered."""
        population = tenant_population(8, 5)
        live, missing = (
            next(payload for payload in population
                 if shard_index(payload["tenant"], 2) == index)
            for index in range(2))

        async def scenario():
            service = WearService(ServiceConfig(
                ledger_dir=str(tmp_path / "ledger")))
            host, port = await service.start()
            client = FleetClient(
                [{"host": host, "port": port},
                 {"ready_file": str(tmp_path / "never.json")}],
                retry=None, ready_timeout_s=2.0)
            try:
                assert (await client.provision(**live))["status"] == "ok"
                started = time.perf_counter()
                stuck = asyncio.create_task(
                    client.access(missing["tenant"]))
                response = await client.access(live["tenant"])
                elapsed = time.perf_counter() - started
                waiting = not stuck.done()
                return response, elapsed, waiting, await stuck
            finally:
                await client.close()
                await service.shutdown()

        response, elapsed, waiting, stuck = asyncio.run(scenario())
        assert response["status"] == "ok"
        assert elapsed < 0.5
        assert waiting
        assert stuck["status"] == "unavailable"


class TestSplitWorkers:
    def test_proportional_with_one_worker_per_busy_shard(self):
        assert split_workers([900, 600], 8) == [5, 3]
        # All tenants on one shard: the idle shard gets no worker.
        assert split_workers([0, 24], 4) == [0, 4]
        # More busy shards than workers: each still gets one.
        assert split_workers([3, 0, 5], 1) == [1, 0, 1]
        # Never more workers than requests.
        assert split_workers([2, 1], 8) == [2, 1]


class TestInProcessFleet:
    def test_fleet_rounds_close_early(self, tmp_path):
        """Two shards under a 5 s window: no round waits it out, because
        every connection open on a shard has work for that shard."""
        configs = [ServiceConfig(
            ledger_dir=str(tmp_path / f"shard-{index}" / "ledger"),
            window_s=5.0,
            ready_file=str(tmp_path / f"shard-{index}.ready"))
            for index in range(2)]
        map_path = str(tmp_path / FLEET_MAP_NAME)
        write_fleet_map(map_path, [
            {"index": index, "ledger_dir": config.ledger_dir,
             "ready_file": config.ready_file}
            for index, config in enumerate(configs)])

        async def scenario():
            services = [WearService(config) for config in configs]
            for service in services:
                await service.start()
            try:
                return await asyncio.wait_for(run_loadgen(
                    map_path, tenants=8, requests=24, concurrency=4,
                    seed=71), 5.0)
            finally:
                for service in services:
                    await service.shutdown()

        stats = asyncio.run(scenario())
        assert stats["outcomes"] == {"ok": 24}
        assert stats["shards"] == 2
        assert sum(stats["per_shard_requests"]) == 24
        assert all(stats["per_shard_workers"])
        assert stats["service"]["requests"] == 24
        assert stats["service"]["window_expired"] == 0
