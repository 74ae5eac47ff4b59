"""Fleet supervision: spawn, probe, SIGKILL, restart through recovery.

Real subprocess shards (each ``python -m repro.cli serve`` in its own
session), so these are marked slow.  The wear-exactness half of the
failover story - recovered state bit-identical, retries replayed - is
pinned harder by the chaos scenarios; here we pin the supervision
mechanics themselves.
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    read_ready_file,
    run_loadgen,
)
from repro.service.fleet import FleetClient
from repro.service.supervisor import FleetSupervisor

pytestmark = pytest.mark.slow


def _supervisor(tmp_path, **overrides):
    kwargs = dict(window_s=0.001, snapshot_every=8, max_restarts=5,
                  restart_backoff_s=0.02)
    kwargs.update(overrides)
    return FleetSupervisor(str(tmp_path / "fleet"), 2, **kwargs)


async def _status(ready_file: str) -> dict:
    """The ``status`` answer of the shard named by ``ready_file``."""
    client = ServiceClient(*read_ready_file(ready_file, timeout_s=5))
    try:
        return await asyncio.wait_for(client.status(), timeout=5)
    finally:
        await client.close()


class TestLifecycle:
    def test_start_probe_stop(self, tmp_path):
        with _supervisor(tmp_path) as sup:
            assert sup.alive() == [True, True]
            for index in range(2):
                status = asyncio.run(_status(sup.ready_file(index)))
                assert status["status"] == "ok"
                assert status["tenants"] == {}
        assert sup.alive() == [False, False]

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FleetSupervisor(str(tmp_path), 0)
        with pytest.raises(ConfigurationError):
            FleetSupervisor(str(tmp_path), 1, max_restarts=-1)


class TestFailover:
    def test_killed_shard_restarts_with_exact_state(self, tmp_path):
        retry = RetryPolicy(retries=6, base_s=0.02, cap_s=0.3)
        with _supervisor(tmp_path) as sup:
            stats = asyncio.run(run_loadgen(
                sup.map_path, tenants=4, requests=24, concurrency=4,
                seed=5, retry=retry))
            assert stats["served"] > 0
            assert sum(stats["outcomes"].values()) == 24
            # Tenant-hash routing accounts for every request, per shard.
            assert len(stats["per_shard_requests"]) == 2
            assert sum(stats["per_shard_requests"]) == 24

            sup.kill_shard(0)
            assert sup.alive() == [False, True]
            assert sup.poll() == [0]
            assert sup.alive() == [True, True]
            assert sup.restarts == [1, 0]

            # The restarted shard recovered its ledger: a retry of an
            # already-committed rid replays the recorded answer instead
            # of charging wear again.
            async def replay_check():
                client = FleetClient(sup.map_path, retry=retry)
                try:
                    first = await client.access("tenant-000",
                                                rid="fo-1")
                    again = await client.access("tenant-000",
                                                rid="fo-1")
                    return first, again
                finally:
                    await client.close()

            first, again = asyncio.run(replay_check())
            assert first["status"] in ("ok", "exhausted")
            assert again == first

    def test_restart_budget_exhaustion_raises(self, tmp_path):
        with _supervisor(tmp_path, max_restarts=0) as sup:
            sup.kill_shard(1)
            with pytest.raises(ConfigurationError,
                               match="restart budget"):
                sup.poll()

    def test_poll_is_a_noop_when_healthy(self, tmp_path):
        with _supervisor(tmp_path) as sup:
            assert sup.poll() == []
            assert sup.restarts == [0, 0]
