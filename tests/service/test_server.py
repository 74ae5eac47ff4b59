"""End-to-end tests of the asyncio service over real loopback sockets.

``pytest-asyncio`` is not a dependency here, so every test is a sync
function driving one ``asyncio.run`` scenario.
"""

import asyncio
import json
import logging
import os
import re
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, LedgerWriteError
from repro.service import protocol
from repro.service.client import (
    ServiceClient,
    read_ready_file,
    run_loadgen,
    tenant_population,
)
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.server import ServiceConfig, WearService, run_service

pytestmark = pytest.mark.slow

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: ``repro serve`` with ``WearService.start`` wrapped to SIGTERM its own
#: process as soon as the original returns - the instant a supervisor
#: may see the ready file.  ``argv[1]`` is the seconds the wrapper then
#: yields to the event loop before returning, which lets the signal
#: arrive while ``start()`` is still running.
_SIGTERM_AT_READY_CHILD = """
import asyncio
import os
import signal
import sys

from repro.cli.main import main
from repro.service.server import WearService

original = WearService.start
delay = float(sys.argv[1])


async def start(self):
    address = await original(self)
    os.kill(os.getpid(), signal.SIGTERM)
    if delay:
        await asyncio.sleep(delay)
    return address


WearService.start = start
sys.exit(main(sys.argv[2:]))
"""


def _config(tmp_path, **overrides) -> ServiceConfig:
    settings = {"ledger_dir": str(tmp_path / "ledger"),
                "window_s": 0.001}
    settings.update(overrides)
    return ServiceConfig(**settings)


async def _with_service(config, scenario):
    """Start a service, run ``scenario(host, port, service)``, drain."""
    service = WearService(config)
    host, port = await service.start()
    try:
        return await scenario(host, port, service)
    finally:
        await service.shutdown()


async def _until(predicate, timeout_s: float = 5.0) -> None:
    """Yield to the event loop until ``predicate()`` holds."""
    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout_s)


async def _connect(host, port, service, count: int) -> list:
    """Open ``count`` clients and wait until the server counts them."""
    expected = service.batcher.connections + count
    clients = [await ServiceClient(host, port).connect()
               for _ in range(count)]
    await _until(lambda: service.batcher.connections == expected)
    return clients


async def _close(*clients) -> None:
    for client in clients:
        await client.close()


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _config(tmp_path, queue_cap=0)
        with pytest.raises(ConfigurationError):
            _config(tmp_path, rate_limit=-1.0)
        with pytest.raises(ConfigurationError):
            _config(tmp_path, rate_burst=0)
        with pytest.raises(ConfigurationError):
            _config(tmp_path, snapshot_every=-1)


class TestServing:
    def test_provision_access_status(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            payload = tenant_population(1, seed=3)[0]
            provisioned = await client.provision(**payload)
            assert provisioned["status"] == "ok"
            assert provisioned["capacity"] > 0

            response = await client.access("tenant-000")
            assert response["status"] == "ok"
            assert response["served"] == 1
            assert bytes.fromhex(response["secret"])

            status = await client.status("tenant-000")
            assert status["served"] == 1
            everyone = await client.status()
            assert everyone["service"]["requests"] == 1
            assert everyone["service"]["draining"] is False
            await client.close()

        asyncio.run(_with_service(_config(tmp_path), scenario))

    def test_unbuildable_provision_is_a_bad_request(self, tmp_path):
        """A seed the generator refuses is answered, not a dropped
        connection, and leaves no record behind."""
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            bad, good = tenant_population(2, seed=3)
            refused = await client.provision(**dict(bad, seed=-1))
            assert refused["status"] == "bad-request"
            assert service.ledger.next_seq == 0
            assert (await client.provision(**good))["status"] == "ok"
            await client.close()

        asyncio.run(_with_service(_config(tmp_path), scenario))
        recovered = WearHub(WearLedger(str(tmp_path / "ledger")))
        assert recovered.recover() == 1
        recovered.ledger.close()

    def test_unknown_ops_and_tenants_are_denials(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            assert (await client.request({"op": "dance"}))["status"] \
                == "bad-request"
            assert (await client.access("ghost"))["status"] \
                == "unknown-tenant"
            assert (await client.request({"op": "access"}))["status"] \
                == "bad-request"
            await client.close()

        asyncio.run(_with_service(_config(tmp_path), scenario))

    def test_concurrent_clients_are_batched(self, tmp_path):
        async def scenario(host, port, service):
            admin = await ServiceClient(host, port).connect()
            for payload in tenant_population(3, seed=5):
                await admin.provision(**payload)

            async def one_access(name):
                client = await ServiceClient(host, port).connect()
                response = await client.access(name)
                await client.close()
                return response

            responses = await asyncio.gather(
                *(one_access(f"tenant-{i:03d}") for i in range(3)))
            assert all(r["status"] == "ok" for r in responses)
            stats = service.batcher.stats()
            await admin.close()
            return stats

        stats = asyncio.run(_with_service(_config(tmp_path), scenario))
        # Three concurrent requests over distinct tenants coalesce into
        # fewer rounds than requests (usually one).
        assert stats["rounds"] < 3
        assert stats["batch_size_max"] >= 2

    def test_rate_limit_answers_denial_not_drop(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=9)[0])
            outcomes = []
            for _ in range(6):
                response = await client.access("tenant-000")
                outcomes.append(response["status"])
            await client.close()
            return outcomes

        outcomes = asyncio.run(_with_service(
            _config(tmp_path, rate_limit=0.001, rate_burst=2), scenario))
        assert outcomes.count("rate-limited") == 4
        assert [s for s in outcomes if s != "rate-limited"] == ["ok", "ok"]

    def test_queue_cap_answers_busy(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=11)[0])
            # Pause the batcher loop by replacing the hub round; simpler:
            # fill the queue faster than the (long-window) batcher drains.
            async def one_access():
                c = await ServiceClient(host, port).connect()
                response = await c.access("tenant-000")
                await c.close()
                return response["status"]

            statuses = await asyncio.gather(
                *(one_access() for _ in range(8)))
            await client.close()
            return statuses

        statuses = asyncio.run(_with_service(
            _config(tmp_path, window_s=0.2, queue_cap=2), scenario))
        assert "busy" in statuses
        # Every request got exactly one answer; nothing was dropped.
        assert len(statuses) == 8
        assert set(statuses) <= {"ok", "busy", "exhausted"}


class TestRoundClosing:
    """A round closes once every open connection has a request queued."""

    def test_full_round_does_not_wait_for_the_window(self, tmp_path):
        async def scenario(host, port, service):
            admin = await ServiceClient(host, port).connect()
            for payload in tenant_population(2, seed=37):
                await admin.provision(**payload)
            await admin.close()
            await _until(lambda: service.batcher.connections == 0)
            clients = await _connect(host, port, service, 2)
            responses = await asyncio.wait_for(asyncio.gather(
                *(client.access(f"tenant-{index:03d}")
                  for index, client in enumerate(clients))), 1.0)
            await _close(*clients)
            return responses, service.batcher.stats()

        responses, stats = asyncio.run(_with_service(
            _config(tmp_path, window_s=5.0), scenario))
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert stats["rounds"] == 1
        assert stats["window_expired"] == 0

    def test_idle_connection_holds_the_window(self, tmp_path):
        async def scenario(host, port, service):
            admin = await ServiceClient(host, port).connect()
            for payload in tenant_population(2, seed=41):
                await admin.provision(**payload)
            clients = await _connect(host, port, service, 2)
            loop = asyncio.get_running_loop()
            started = loop.time()
            responses = await asyncio.wait_for(asyncio.gather(
                *(client.access(f"tenant-{index:03d}")
                  for index, client in enumerate(clients))), 5.0)
            elapsed = loop.time() - started
            metrics = await admin.metrics()
            await _close(admin, *clients)
            return responses, elapsed, metrics["service"]

        responses, elapsed, stats = asyncio.run(_with_service(
            _config(tmp_path, window_s=0.3), scenario))
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert elapsed >= 0.3 - 1e-3
        assert stats["rounds"] == 1
        assert stats["window_expired"] == 1

    def test_closing_the_idle_connection_closes_the_round(self, tmp_path):
        async def scenario(host, port, service):
            admin = await ServiceClient(host, port).connect()
            await admin.provision(**tenant_population(1, seed=43)[0])
            (client,) = await _connect(host, port, service, 1)
            pending = asyncio.ensure_future(client.access("tenant-000"))
            await _until(lambda: service.batcher.depth == 1)
            await admin.close()
            response = await asyncio.wait_for(pending, 1.0)
            await client.close()
            return response, service.batcher.stats()

        response, stats = asyncio.run(_with_service(
            _config(tmp_path, window_s=5.0), scenario))
        assert response["status"] == "ok"
        assert stats["window_expired"] == 0

    def test_loadgen_never_waits_out_a_long_window(self, tmp_path):
        async def scenario(host, port, service):
            return await asyncio.wait_for(run_loadgen(
                [{"host": host, "port": port}], tenants=4, requests=20,
                concurrency=2, seed=47), 5.0)

        stats = asyncio.run(_with_service(
            _config(tmp_path, window_s=5.0), scenario))
        assert stats["outcomes"] == {"ok": 20}
        assert stats["service"]["window_expired"] == 0


class TestWalWriteFailure:
    def test_failed_wal_write_answers_error_and_stops(self, tmp_path,
                                                      failing_wal):
        ready = str(tmp_path / "ready.json")
        config = _config(tmp_path, ready_file=ready)
        population = tenant_population(2, seed=53)

        async def scenario():
            serving = asyncio.ensure_future(run_service(config))
            host, port = await asyncio.to_thread(read_ready_file, ready, 5)
            admin = await ServiceClient(host, port).connect()
            await admin.provision(**population[0])
            assert (await admin.access("tenant-000"))["status"] == "ok"
            before = await admin.status("tenant-000")
            await admin.close()
            clients = [await ServiceClient(host, port).connect()
                       for _ in range(2)]
            failing_wal[0].armed = True
            # Two requests for one tenant: one fails in the round, the
            # other waits its turn in the queue.
            answers = await asyncio.wait_for(asyncio.gather(
                *(client.access("tenant-000") for client in clients)), 5)
            with pytest.raises(LedgerWriteError):
                await asyncio.wait_for(serving, 5)
            # The stopped service closed both connections.
            closes = [await asyncio.wait_for(client._reader.read(), 5)
                      for client in clients]
            await _close(*clients)
            return before, answers, closes

        before, answers, closes = asyncio.run(scenario())
        assert [a["status"] for a in answers] == ["error", "error"]
        assert closes == [b"", b""]
        # No snapshot claims the lost record, and recovery restores the
        # tenants and wear from before the failure.
        assert not (tmp_path / "ledger" / "snapshot.json").exists()
        hub = WearHub(WearLedger(config.ledger_dir))
        hub.recover()
        assert sorted(hub.tenants) == ["tenant-000"]
        after = hub.status("tenant-000")
        hub.ledger.close()
        for field in ("attempts", "served", "remaining", "wear_cycles",
                      "current_copy", "dead_banks"):
            assert after[field] == before[field]

    def test_failed_service_closes_idle_connections(self, tmp_path,
                                                    failing_wal, caplog):
        """A failed service closes every connection, like a drain: by the
        time :func:`run_service` raises, a client that never sent a
        request has read EOF and no connection handler is left pending
        (on Python 3.12.1+ ``Server.wait_closed`` would wait for it)."""
        ready = str(tmp_path / "ready.json")
        config = _config(tmp_path, ready_file=ready)

        async def scenario():
            serving = asyncio.ensure_future(run_service(config))
            host, port = await asyncio.to_thread(read_ready_file, ready, 5)
            reader, writer = await asyncio.open_connection(host, port)
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=71)[0])
            failing_wal[0].armed = True
            answer = await asyncio.wait_for(client.access("tenant-000"), 5)
            with pytest.raises(LedgerWriteError):
                await asyncio.wait_for(serving, 5)
            handlers = [task for task in asyncio.all_tasks()
                        if task.get_coro().__name__ == "_handle_connection"]
            eof = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            await writer.wait_closed()
            await client.close()
            return answer, handlers, eof

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            answer, handlers, eof = asyncio.run(scenario())
        assert answer["status"] == "error"
        assert handlers == []
        assert eof == b""
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestSnapshotFailure:
    def test_failed_periodic_snapshot_still_answers(self, tmp_path,
                                                    failing_snapshot):
        config = _config(tmp_path, snapshot_every=1, segment_records=1)
        payload = tenant_population(1, seed=59)[0]

        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            await client.provision(**payload)
            failing_snapshot.armed = True
            answers = [await client.access("tenant-000", rid=f"snap-{i}")
                       for i in range(2)]
            status = await client.status()
            await client.close()
            return answers, status

        answers, status = asyncio.run(_with_service(config, scenario))
        assert [a["status"] for a in answers] == ["ok", "ok"]
        assert status["service"]["snapshot_failures"] == 1
        hub = WearHub(WearLedger(config.ledger_dir))
        hub.recover()
        assert hub.tenants["tenant-000"].served == 2
        hub.ledger.close()

    def test_failed_drain_snapshot_ends_the_drain(self, tmp_path,
                                                  failing_snapshot):
        ready = str(tmp_path / "ready.json")
        config = _config(tmp_path, ready_file=ready)

        async def scenario():
            serving = asyncio.ensure_future(run_service(config))
            host, port = await asyncio.to_thread(read_ready_file, ready, 5)
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=61)[0])
            assert (await client.access("tenant-000"))["status"] == "ok"
            failing_snapshot.armed = True
            assert (await client.drain())["status"] == "ok"
            await client.close()
            with pytest.raises(LedgerWriteError, match="snapshot.json"):
                await asyncio.wait_for(serving, 5)

        asyncio.run(scenario())
        hub = WearHub(WearLedger(config.ledger_dir))
        hub.recover()
        assert hub.tenants["tenant-000"].served == 1
        hub.ledger.close()


class TestFrameCap:
    def test_oversized_response_is_answered_not_dropped(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)

        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            for payload in tenant_population(48, seed=67):
                await client.provision(**payload)
            everyone = await client.status()
            access = await client.access("tenant-000")
            await client.close()
            return everyone, access

        everyone, access = asyncio.run(
            _with_service(_config(tmp_path), scenario))
        assert everyone["status"] == "error"
        assert re.search(r"'status' response: frame of \d+ bytes exceeds "
                         r"the 4096-byte", everyone["message"])
        assert access["status"] == "ok"


class TestDrain:
    def test_drain_op_flushes_and_stops(self, tmp_path):
        config = _config(tmp_path)

        async def scenario():
            service = WearService(config)
            host, port = await service.start()
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=13)[0])
            await client.access("tenant-000")
            drained = await client.drain()
            assert drained["status"] == "ok"
            assert drained["requests"] == 1
            # The only connection had its request queued: no waiting.
            assert drained["window_expired"] == 0
            await client.close()
            await asyncio.wait_for(service.wait_closed(), timeout=10)

        asyncio.run(scenario())
        # The drain snapshot covers the whole WAL.
        snapshot = json.loads(
            (tmp_path / "ledger" / "snapshot.json").read_text())
        assert snapshot["meta"]["kind"] == "svc-snapshot"
        assert snapshot["meta"]["last_seq"] == 1

    @pytest.mark.parametrize("delay", [0.0, 0.05],
                             ids=["after-start", "during-start"])
    def test_sigterm_at_the_ready_file_drains(self, tmp_path, delay):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC, env.get("PYTHONPATH")]))
        ledger = tmp_path / "ledger"
        proc = subprocess.run(
            [sys.executable, "-c", _SIGTERM_AT_READY_CHILD, str(delay),
             "serve", "--ledger", str(ledger), "--no-record",
             "--ready-file", str(tmp_path / "ready.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "service drained cleanly" in proc.stdout
        snapshot = json.loads((ledger / "snapshot.json").read_text())
        assert snapshot["meta"]["kind"] == "svc-snapshot"

    def test_drain_closes_idle_connections(self, tmp_path, caplog):
        """A drain ends connections that never sent a request: their
        client reads EOF, and no handler is left for the closing loop to
        cancel (which Python 3.11 logs as an asyncio error)."""
        async def scenario():
            service = WearService(_config(tmp_path))
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            await _until(lambda: service.batcher.connections == 1)
            await asyncio.wait_for(service.shutdown(), timeout=5)
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            return eof, service.batcher.connections

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            eof, connections = asyncio.run(scenario())
        assert eof == b""
        assert connections == 0
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_draining_service_denies_new_work(self, tmp_path):
        async def scenario():
            service = WearService(_config(tmp_path))
            host, port = await service.start()
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=17)[0])
            await client.drain()
            await service.wait_closed()
            fresh = ServiceClient(host, port)
            with pytest.raises((ConnectionRefusedError, ConfigurationError,
                                ConnectionResetError)):
                await fresh.access("tenant-000")
            await fresh.close()

        asyncio.run(scenario())

    def test_restart_resumes_served_counts(self, tmp_path):
        config = _config(tmp_path)

        async def first_life():
            service = WearService(config)
            host, port = await service.start()
            client = await ServiceClient(host, port).connect()
            await client.provision(**tenant_population(1, seed=19)[0])
            for _ in range(3):
                await client.access("tenant-000")
            status = await client.status("tenant-000")
            await client.close()
            await service.shutdown()
            return status

        async def second_life():
            service = WearService(config)
            host, port = await service.start()
            client = await ServiceClient(host, port).connect()
            status = await client.status("tenant-000")
            await client.close()
            await service.shutdown()
            return status, service.recovered_records

        before = asyncio.run(first_life())
        after, recovered = asyncio.run(second_life())
        assert recovered == 4  # provision + 3 accesses
        for field in ("attempts", "served", "remaining", "wear_cycles",
                      "current_copy", "dead_banks"):
            assert after[field] == before[field]


class TestReadyFile:
    def test_ready_file_names_the_bound_port(self, tmp_path):
        ready = str(tmp_path / "ready.json")

        async def scenario(host, port, service):
            assert read_ready_file(ready, timeout_s=5) == (host, port)

        asyncio.run(_with_service(
            _config(tmp_path, ready_file=ready), scenario))

    def test_missing_ready_file_times_out(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_ready_file(str(tmp_path / "never.json"), timeout_s=0.1)


class TestLoadgen:
    def test_loadgen_reports_every_outcome(self, tmp_path):
        async def scenario(host, port, service):
            return await run_loadgen([{"host": host, "port": port}],
                                     tenants=3, requests=30,
                                     concurrency=4, seed=23)

        stats = asyncio.run(_with_service(_config(tmp_path), scenario))
        assert stats["requests"] == 30
        assert sum(stats["outcomes"].values()) == 30
        assert stats["served"] > 0
        assert stats["service"]["rounds"] > 0

    def test_loadgen_is_idempotent_over_provisioning(self, tmp_path):
        async def scenario(host, port, service):
            shards = [{"host": host, "port": port}]
            first = await run_loadgen(shards, tenants=2, requests=4,
                                      concurrency=2, seed=29)
            second = await run_loadgen(shards, tenants=2, requests=4,
                                       concurrency=2, seed=29)
            return first, second

        first, second = asyncio.run(
            _with_service(_config(tmp_path), scenario))
        assert first["provisioned"] == 2
        assert second["provisioned"] == 0  # already there, tolerated

    def test_loadgen_serves_the_rs_scheme(self, tmp_path):
        async def scenario(host, port, service):
            return await run_loadgen([{"host": host, "port": port}],
                                     tenants=2, requests=6, concurrency=2,
                                     seed=31,
                                     population_kwargs={"scheme": "rs"})

        stats = asyncio.run(_with_service(_config(tmp_path), scenario))
        assert stats["outcomes"] == {"ok": 6}


class TestIdempotentRetries:
    def test_same_rid_over_the_socket_replays(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            payload = tenant_population(1, seed=3)[0]
            await client.provision(**payload)
            tenant = payload["tenant"]
            first = await client.access(tenant, rid="sock-1")
            replay = await client.access(tenant, rid="sock-1")
            assert replay == first
            fresh = await client.access(tenant, rid="sock-2")
            assert fresh["attempts"] == first["attempts"] + 1
            await client.close()

        asyncio.run(_with_service(_config(tmp_path), scenario))

    def test_bad_rid_is_a_bad_request(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            payload = tenant_population(1, seed=3)[0]
            await client.provision(**payload)
            for bad in ("", 7):
                response = await client.request(
                    {"op": "access", "tenant": payload["tenant"],
                     "rid": bad})
                assert response["status"] == "bad-request"
            # A null rid is the documented "no idempotency key" case,
            # not an error: the access goes through unkeyed.
            response = await client.request(
                {"op": "access", "tenant": payload["tenant"], "rid": None})
            assert response["status"] == "ok"
            await client.close()

        asyncio.run(_with_service(_config(tmp_path), scenario))

    def test_segment_rotation_under_load(self, tmp_path):
        async def scenario(host, port, service):
            client = await ServiceClient(host, port).connect()
            payload = tenant_population(1, seed=3)[0]
            await client.provision(**payload)
            for index in range(10):
                await client.access(payload["tenant"], rid=f"rot-{index}")
            await client.close()

        config = _config(tmp_path, snapshot_every=2, segment_records=4)
        asyncio.run(_with_service(config, scenario))
        from repro.service.hub import WearHub
        from repro.service.ledger import WearLedger

        ledger = WearLedger(config.ledger_dir)
        assert ledger.archived_records()  # rotation actually happened
        hub = WearHub(ledger)
        hub.recover()
        tenant = hub.tenants[tenant_population(1, seed=3)[0]["tenant"]]
        assert tenant.attempts == 10
        hub.ledger.close()

    def test_segment_records_requires_snapshot_every(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _config(tmp_path, segment_records=8)
