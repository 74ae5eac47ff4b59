"""Client side of the service protocol, plus the load generator.

:class:`ServiceClient` is a thin framed-request wrapper; ``run_loadgen``
is the one load generator, behind ``repro loadgen``, ``repro fleet
run|drive``, chaos ``kill-mid-batch`` and the ``svc.*`` bench
workloads.  It drives a list of shards (one server is a fleet of one
shard) through :class:`~repro.service.fleet.FleetClient`, and reports
every outcome class explicitly (served, exhausted, busy, rate-limited,
fault, unavailable) so a smoke run can assert both liveness *and* that
backpressure answers were denials rather than drops.

``busy`` answers and lost connections are retried under
:class:`RetryPolicy` - capped exponential backoff with full jitter and
a bounded retry budget.  Retries reuse the request's idempotency key
(``rid``), which is what makes retrying always safe: if the original
attempt committed before the response was lost, the server replays the
recorded response instead of charging wear again.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.recorder import MetricsRegistry
from repro.service.protocol import cap_socket_reads, read_frame, write_frame

__all__ = ["ServiceClient", "RetryPolicy", "tenant_population",
           "provision_population", "split_workers", "run_loadgen",
           "read_ready_file", "latency_split_from_metrics",
           "LOADGEN_SCHEMA_VERSION"]

#: Version of the ``run_loadgen`` stats payload (``--json-out``).
LOADGEN_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter and a retry budget."""

    retries: int = 5        # retry budget per request (0 disables)
    base_s: float = 0.01    # first backoff ceiling
    cap_s: float = 0.5      # backoff ceiling growth stops here

    def __post_init__(self) -> None:
        if self.retries < 0 or self.base_s <= 0 or self.cap_s < self.base_s:
            raise ConfigurationError(
                "need retries >= 0 and 0 < base_s <= cap_s")

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry ``attempt`` (0-based)."""
        ceiling = min(self.cap_s, self.base_s * (2 ** attempt))
        return rng.uniform(0.0, ceiling)


class ServiceClient:
    """One framed connection to a service instance."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        cap_socket_reads(self._writer.transport)
        return self

    async def request(self, payload: dict) -> dict:
        if self._writer is None:
            await self.connect()
        await write_frame(self._writer, payload)
        response = await read_frame(self._reader)
        if response is None:
            raise ConfigurationError(
                "server closed the connection mid-request")
        return response

    async def provision(self, **fields) -> dict:
        return await self.request(dict(fields, op="provision"))

    async def access(self, tenant: str, rid: str | None = None,
                     trace: str | None = None) -> dict:
        payload: dict = {"op": "access", "tenant": tenant}
        if rid is not None:
            payload["rid"] = rid
        if trace is not None:
            payload["trace"] = trace
        return await self.request(payload)

    async def status(self, tenant: str | None = None) -> dict:
        payload: dict = {"op": "status"}
        if tenant is not None:
            payload["tenant"] = tenant
        return await self.request(payload)

    async def metrics(self) -> dict:
        """The shard's telemetry snapshot (``metrics`` op)."""
        return await self.request({"op": "metrics"})

    async def drain(self) -> dict:
        return await self.request({"op": "drain"})

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None


def read_ready_file(path: str, timeout_s: float = 30.0) -> tuple[str, int]:
    """Poll a server's ready file until it names the bound address."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            return payload["host"], int(payload["port"])
        time.sleep(0.02)
    raise ConfigurationError(
        f"server ready file {path!r} did not appear within {timeout_s}s")


def tenant_population(tenants: int, seed: int, *, alpha: float = 9.0,
                      beta: float = 6.0, n: int = 6, k: int = 2,
                      copies: int = 3, scheme: str = "shamir",
                      secret_len: int = 16,
                      faults: dict | None = None) -> list[dict]:
    """Deterministic provision payloads for a seeded tenant population.

    Secrets are derived from ``(seed, index)`` so any process - the
    loadgen, a differential test, a restarted campaign - reconstructs
    the same population without coordination.
    """
    if tenants < 1:
        raise ConfigurationError("tenants must be >= 1")
    population = []
    for index in range(tenants):
        secret = bytes((seed + 31 * index + 7 * b) % 256
                       for b in range(secret_len))
        population.append({
            "tenant": f"tenant-{index:03d}",
            "alpha": alpha, "beta": beta, "n": n, "k": k,
            "copies": copies, "scheme": scheme,
            "seed": seed * 1000 + index,
            "secret": secret.hex(),
            "faults": faults,
        })
    return population


_SPLIT_STAGES = (("queue_wait", "svc.queue_wait_s"),
                 ("kernel", "svc.kernel_s"),
                 ("wal_append", "svc.wal_append_s"),
                 ("round", "svc.round_latency_s"))


def latency_split_from_metrics(response: dict | None) -> dict | None:
    """Queue-wait vs kernel-time split out of a ``metrics`` op response.

    Returns ``None`` when the shard ran without ``--obs-metrics`` (or
    predates the op), so callers degrade gracefully.
    """
    if not response or response.get("status") != "ok":
        return None
    histograms = (response.get("metrics") or {}).get("histograms") or {}
    split: dict = {}
    for label, name in _SPLIT_STAGES:
        summary = histograms.get(name)
        if summary and summary.get("count"):
            split[label] = {key: summary.get(key) for key in
                            ("count", "mean", "p50", "p95", "p99", "max")}
    return split or None


async def provision_population(client, population: list[dict]) -> int:
    """Provision every payload through ``client``; returns how many were new.

    ``exists`` answers are tolerated, so a rerun over the same ledger
    provisions nothing; any other answer raises.
    """
    provisioned = 0
    for payload in population:
        response = await client.provision(**payload)
        if response["status"] == "ok":
            provisioned += 1
        elif response["status"] != "exists":
            raise ConfigurationError(
                f"provision of {payload['tenant']!r} failed: {response}")
    return provisioned


def split_workers(planned: list[int], concurrency: int) -> list[int]:
    """Workers per shard, in proportion to its planned requests.

    A shard with requests gets at least one worker (so the total can
    exceed ``concurrency``), one without gets none, and none gets more
    workers than requests.  Each further worker goes to the shard with
    the most requests per worker, ties to the lower index.
    """
    workers = [min(count, 1) for count in planned]
    for _ in range(concurrency - sum(workers)):
        index = max((i for i, count in enumerate(planned)
                     if count > workers[i]),
                    key=lambda i: planned[i] / workers[i], default=None)
        if index is None:
            break
        workers[index] += 1
    return workers


def _sum_service(services: list[dict]) -> dict:
    """The shards' batcher counters summed and batch sizes merged."""
    total = {key: sum(service[key] for service in services)
             for key in ("rounds", "requests", "window_expired")}
    sizes: dict[int, int] = {}
    for service in services:
        for size, count in service["batch_sizes"].items():
            sizes[int(size)] = sizes.get(int(size), 0) + count
    total["batch_size_max"] = max(sizes, default=0)
    total["batch_size_mean"] = (total["requests"] / total["rounds"]
                                if total["rounds"] else 0.0)
    total["batch_sizes"] = {str(size): sizes[size] for size in sorted(sizes)}
    return total


async def run_loadgen(shards: str | list[dict], *, tenants: int = 4,
                      requests: int = 100, concurrency: int = 8,
                      seed: int = 0, faults: dict | None = None,
                      drain: bool = False,
                      retry: RetryPolicy | None = RetryPolicy(),
                      population_kwargs: dict | None = None) -> dict:
    """Drive a running server or fleet; returns the outcome statistics.

    ``shards`` is a fleet map path or a list of shard entries, each
    naming a ``ready_file`` or a ``host``/``port`` pair; one server is
    a fleet of one shard.  The ``(tenant, rid)`` plan is split by
    owning shard and each worker is pinned to one shard
    (:func:`split_workers`), so every connection open on a shard has
    work there.  Requests go through
    :class:`~repro.service.fleet.FleetClient`, whose ``retry`` budget
    covers ``busy`` answers and reconnects (``None`` disables it).
    Outcomes count each request's *final* answer, so they still sum to
    ``requests``.
    """
    from repro.service.fleet import FleetClient, shard_index

    if requests < 1 or concurrency < 1:
        raise ConfigurationError(
            "requests and concurrency must be >= 1")
    population = tenant_population(tenants, seed, faults=faults,
                                   **(population_kwargs or {}))
    admin = FleetClient(shards, retry=retry, jitter_seed=seed)
    provisioned = await provision_population(admin, population)
    # An idle open connection holds every batching round on its shard
    # open for the whole window; the admin client reconnects for the
    # closing metrics and drain.
    await admin.close()
    shard_count = len(admin.shards)
    plans: list[deque] = [deque() for _ in range(shard_count)]
    for index in range(requests):
        tenant = population[index % tenants]["tenant"]
        plans[shard_index(tenant, shard_count)].append(
            (tenant, f"lg-{seed}-{index:06d}"))
    per_shard_requests = [len(plan) for plan in plans]
    per_shard_workers = split_workers(per_shard_requests, concurrency)
    outcomes: dict[str, int] = {}
    latencies: list[float] = []

    async def worker(client: FleetClient, plan: deque) -> None:
        try:
            while plan:
                tenant, rid = plan.popleft()
                started = time.perf_counter()
                # One trace id per logical request, derived from the
                # idempotency key so retries share it.
                response = await client.access(tenant, rid=rid,
                                               trace=f"tr-{rid}")
                latencies.append(time.perf_counter() - started)
                status = response["status"]
                outcomes[status] = outcomes.get(status, 0) + 1
        finally:
            await client.close()

    pinned = [shard for shard, count in enumerate(per_shard_workers)
              for _ in range(count)]
    clients = [FleetClient(admin.shards, retry=retry,
                           jitter_seed=seed * 7919 + index + 1)
               for index in range(len(pinned))]
    started = time.perf_counter()
    await asyncio.gather(*(worker(client, plans[shard])
                           for client, shard in zip(clients, pinned)))
    elapsed = time.perf_counter() - started
    # A shard whose metrics answer is an error adds no counters.
    answered = [response for response
                in (await admin.metrics())["shards"].values()
                if response.get("status") == "ok"]
    registry = MetricsRegistry()
    for response in answered:
        if response.get("metrics"):
            registry.merge(response["metrics"])
    stats = {
        "schema_version": LOADGEN_SCHEMA_VERSION,
        "kind": "loadgen",
        "shards": shard_count,
        "tenants": tenants,
        "provisioned": provisioned,
        "requests": requests,
        "elapsed_s": elapsed,
        "requests_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "outcomes": dict(sorted(outcomes.items())),
        "served": outcomes.get("ok", 0),
        "busy_retries": sum(client.busy_retries for client in clients),
        "reconnects": sum(client.reconnects for client in clients),
        "per_shard_requests": per_shard_requests,
        "per_shard_workers": per_shard_workers,
        "latency_mean_s": (sum(latencies) / len(latencies)
                           if latencies else 0.0),
        "service": _sum_service([response["service"]
                                 for response in answered]),
    }
    split = latency_split_from_metrics(
        {"status": "ok", "metrics": registry.snapshot()})
    if split is not None:
        stats["latency_split"] = split
    if drain:
        stats["drain"] = await admin.drain()
    await admin.close()
    return stats
