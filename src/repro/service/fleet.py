"""Tenant-hash partitioning and the shard-map-aware fleet client.

One :class:`~repro.service.server.WearService` process is both a
throughput ceiling and a single point of failure for the wear histories
it owns.  The fleet layer splits the tenant space across shared-nothing
shards - each shard is an ordinary service process with its own flock'd
:class:`~repro.service.ledger.WearLedger` directory - by a *stable*
hash of the tenant name, so any client (and any restarted supervisor)
computes the same placement without coordination.

The fleet map (``fleet.json``, written atomically by the supervisor)
names each shard's ledger directory and ready file; the **ready file**
is the indirection that makes failover work: a restarted shard binds a
fresh port and rewrites its ready file, so a client that fails to
connect simply re-reads it and retries.  Retries are safe because every
access carries an idempotency key - if the original attempt committed
before the crash ate the response, the recovered shard replays the
recorded answer instead of charging wear twice.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time

from repro.errors import ConfigurationError
from repro.obs.recorder import OBS
from repro.service.client import RetryPolicy, ServiceClient, read_ready_file

__all__ = ["FLEET_MAP_NAME", "shard_index", "write_fleet_map",
           "read_fleet_map", "FleetClient", "shard_summaries"]

FLEET_MAP_NAME = "fleet.json"


def shard_index(tenant: str, shards: int) -> int:
    """The shard owning ``tenant`` - stable across processes and runs.

    Uses SHA-256 rather than :func:`hash`: Python randomizes string
    hashing per process, and two parties disagreeing on placement would
    let one tenant's wear history exist twice.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def write_fleet_map(path: str, shards: list[dict]) -> None:
    """Atomically persist the fleet map (tmp + rename, like snapshots)."""
    payload = json.dumps({"version": 1, "shards": shards}, indent=2,
                         sort_keys=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def read_fleet_map(path: str, timeout_s: float = 30.0) -> list[dict]:
    """Poll for the fleet map; returns the shard entries, index-ordered."""
    deadline = time.monotonic() + timeout_s
    while True:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            shards = sorted(payload["shards"], key=lambda s: s["index"])
            if [s["index"] for s in shards] != list(range(len(shards))):
                raise ConfigurationError(
                    f"fleet map {path!r} has non-contiguous shard indices")
            if not shards:
                raise ConfigurationError(f"fleet map {path!r} is empty")
            return shards
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"fleet map {path!r} did not appear within {timeout_s}s")
        time.sleep(0.02)


class FleetClient:
    """Route requests to the owning shard, with crash-safe retries.

    ``shards`` is a fleet map path or the shard entries themselves,
    index-ordered; an entry names a ``ready_file`` or, for a server
    that does not write one, a ``host``/``port`` pair.  Connection
    failures and ``busy`` backpressure both retry under the same
    jittered-backoff budget (``retry=None``: no retry); a connection
    failure additionally re-reads the shard's ready file, because the
    usual cause is a shard that died and came back on a fresh port.
    Exhausting the budget yields a structured ``unavailable`` denial,
    never an exception - fleet callers see the same response-object
    protocol as single-shard ones.
    """

    def __init__(self, shards: str | list[dict], *,
                 retry: RetryPolicy | None = RetryPolicy(),
                 ready_timeout_s: float = 30.0,
                 jitter_seed: int = 0) -> None:
        self.retry = retry
        self.ready_timeout_s = ready_timeout_s
        self.shards = (read_fleet_map(shards) if isinstance(shards, str)
                       else list(shards))
        self.busy_retries = 0
        self.reconnects = 0
        self._rng = random.Random(jitter_seed)
        self._clients: dict[int, ServiceClient] = {}
        # Trace ids stamped on access frames: unique per logical
        # request across processes and workers, shared by retries.
        self._trace_prefix = f"tr-{os.getpid():x}-{jitter_seed:x}"
        self._trace_count = 0

    def shard_for(self, tenant: str) -> int:
        return shard_index(tenant, len(self.shards))

    async def _client(self, index: int) -> ServiceClient:
        client = self._clients.get(index)
        if client is None:
            entry = self.shards[index]
            if "ready_file" in entry:
                # read_ready_file polls with time.sleep: in a thread,
                # other shards' requests go on while this one restarts.
                host, port = await asyncio.to_thread(
                    read_ready_file, entry["ready_file"],
                    timeout_s=self.ready_timeout_s)
            else:
                host, port = entry["host"], int(entry["port"])
            client = ServiceClient(host, port)
            await client.connect()
            self._clients[index] = client
        return client

    async def _drop(self, index: int) -> None:
        client = self._clients.pop(index, None)
        if client is not None:
            await client.close()

    async def _request_shard(self, index: int, payload: dict) -> dict:
        """One routed request with the full retry discipline."""
        last: dict | None = None
        retries = self.retry.retries if self.retry is not None else 0
        for attempt in range(retries + 1):
            if attempt:
                await asyncio.sleep(
                    self.retry.delay_s(attempt - 1, self._rng))
            try:
                client = await self._client(index)
                response = await client.request(payload)
            except (ConnectionError, ConfigurationError, OSError) as exc:
                # The shard is down or mid-restart: drop the cached
                # connection so the next attempt re-reads the ready
                # file (a restarted shard binds a fresh port).
                await self._drop(index)
                self.reconnects += 1
                last = {"status": "unavailable",
                        "message": f"shard {index} unreachable: {exc}",
                        "shard": index}
                continue
            if response["status"] == "busy":
                self.busy_retries += 1
                last = response
                continue
            return response
        assert last is not None
        return last

    async def access(self, tenant: str, rid: str | None = None,
                     trace: str | None = None) -> dict:
        """One routed access, stamped with a trace id.

        The trace id is generated *before* the retry loop (and reused
        across retries - they are the same logical request), so the
        WAL record of whichever attempt committed carries it and one
        merged timeline can follow the request end to end, even when a
        crash-restart sat between attempt and answer.
        """
        if trace is None:
            self._trace_count += 1
            trace = f"{self._trace_prefix}-{self._trace_count:06d}"
        payload: dict = {"op": "access", "tenant": tenant, "trace": trace}
        if rid is not None:
            payload["rid"] = rid
        index = self.shard_for(tenant)
        response = await self._request_shard(index, payload)
        if OBS.enabled:
            OBS.event("client.request", trace=trace, tenant=tenant,
                      shard=index, rid=rid,
                      status=response.get("status"))
        return response

    async def provision(self, **fields) -> dict:
        tenant = fields.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError("provision needs a tenant name")
        return await self._request_shard(self.shard_for(tenant),
                                         dict(fields, op="provision"))

    async def status(self, tenant: str | None = None) -> dict:
        if tenant is not None:
            return await self._request_shard(self.shard_for(tenant),
                                             {"op": "status",
                                              "tenant": tenant})
        by_shard = {}
        for index in range(len(self.shards)):
            by_shard[str(index)] = await self._request_shard(
                index, {"op": "status"})
        return {"status": "ok", "shards": by_shard}

    async def metrics(self) -> dict:
        """Every shard's ``metrics`` op response, keyed by shard index."""
        by_shard = {}
        for index in range(len(self.shards)):
            by_shard[str(index)] = await self._request_shard(
                index, {"op": "metrics"})
        return {"status": "ok", "shards": by_shard}

    async def drain(self) -> dict:
        responses = {}
        for index in range(len(self.shards)):
            responses[str(index)] = await self._request_shard(
                index, {"op": "drain"})
            await self._drop(index)
        return {"status": "ok", "shards": responses}

    async def close(self) -> None:
        for index in list(self._clients):
            await self._drop(index)


def shard_summaries(stats: dict,
                    restarts: list[int] | None = None) -> list[dict]:
    """Per-shard breakdown rows from a ``run_loadgen`` stats dict.

    One compact summary per shard - routed requests, traffic share, and
    (when the caller supervised the fleet itself) restart counts - in
    the shape the run registry records as linked child rows, so
    ``repro report pipeline`` can show a fleet step's shard breakdown
    without reopening any artifact.
    """
    per_shard = stats.get("per_shard_requests") or []
    total = sum(per_shard)
    rows = []
    for index, count in enumerate(per_shard):
        row = {"kind": "fleet-shard", "shard": index,
               "requests": int(count),
               "share": (count / total) if total else 0.0}
        if restarts is not None and index < len(restarts):
            row["restarts"] = int(restarts[index])
        rows.append(row)
    return rows
