"""Client side of the service protocol, plus the load generator.

:class:`ServiceClient` is a thin framed-request wrapper; ``run_loadgen``
is the workhorse behind ``repro loadgen`` and the ``svc.loadgen`` bench
workload: it provisions a seeded multi-tenant population, fires a fixed
number of ``access`` requests at bounded concurrency, and reports every
outcome class explicitly (served, exhausted, busy, rate-limited, fault)
so a smoke run can assert both liveness *and* that backpressure answers
were denials rather than drops.

``busy`` answers are *transient* backpressure, so the loadgen absorbs
them with :class:`RetryPolicy` - capped exponential backoff with full
jitter and a bounded retry budget.  Retries reuse the request's
idempotency key (``rid``), which is what makes retrying always safe:
if the original attempt committed before the response was lost, the
server replays the recorded response instead of charging wear again.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.service.protocol import read_frame, write_frame

__all__ = ["ServiceClient", "RetryPolicy", "tenant_population",
           "run_loadgen", "read_ready_file", "latency_split_from_metrics",
           "LOADGEN_SCHEMA_VERSION"]

#: Version of the ``run_loadgen`` stats payload (``--json-out``).
LOADGEN_SCHEMA_VERSION = 1


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


async def run_loadgen(host: str, port: int, *, tenants: int = 4,
                      requests: int = 100, concurrency: int = 8,
                      seed: int = 0, faults: dict | None = None,
                      drain: bool = False,
                      retry: RetryPolicy | None = RetryPolicy(),
                      population_kwargs: dict | None = None) -> dict:
    """Drive a running service; returns the outcome statistics.

    Every access carries a deterministic idempotency key, and ``busy``
    backpressure answers are retried under ``retry`` (pass ``None`` to
    surface them immediately).  Outcomes count each request's *final*
    answer, so they still sum to ``requests``.
    """
    if requests < 1 or concurrency < 1:
        raise ConfigurationError(
            "requests and concurrency must be >= 1")
    population = tenant_population(tenants, seed, faults=faults,
                                   **(population_kwargs or {}))
    admin = await ServiceClient(host, port).connect()
    provisioned = 0
    for payload in population:
        response = await admin.provision(**payload)
        if response["status"] == "ok":
            provisioned += 1
        elif response["status"] != "exists":
            raise ConfigurationError(
                f"provision of {payload['tenant']!r} failed: {response}")
    # An idle open connection holds every batching round open for the
    # whole window; ``request`` reconnects for status, metrics and drain.
    await admin.close()
    outcomes: dict[str, int] = {}
    latencies: list[float] = []
    busy_retries = 0
    queue: asyncio.Queue[tuple[str, str] | None] = asyncio.Queue()
    for index in range(requests):
        rid = f"lg-{seed}-{index:06d}"
        queue.put_nowait((population[index % tenants]["tenant"], rid))
    for _ in range(concurrency):
        queue.put_nowait(None)

    async def worker(worker_index: int) -> None:
        nonlocal busy_retries
        jitter = random.Random(seed * 7919 + worker_index)
        client = await ServiceClient(host, port).connect()
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                tenant, rid = item
                # One trace id per logical request, derived from the
                # idempotency key so retries share it.
                trace = f"tr-{rid}"
                started = time.perf_counter()
                response = await client.access(tenant, rid=rid,
                                               trace=trace)
                if retry is not None:
                    for attempt in range(retry.retries):
                        if response["status"] != "busy":
                            break
                        await asyncio.sleep(retry.delay_s(attempt, jitter))
                        busy_retries += 1
                        response = await client.access(tenant, rid=rid,
                                                       trace=trace)
                latencies.append(time.perf_counter() - started)
                status = response["status"]
                outcomes[status] = outcomes.get(status, 0) + 1
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker(index) for index in range(concurrency)))
    elapsed = time.perf_counter() - started
    status = await admin.status()
    split = latency_split_from_metrics(await admin.metrics())
    stats = {
        "schema_version": LOADGEN_SCHEMA_VERSION,
        "kind": "loadgen",
        "tenants": tenants,
        "provisioned": provisioned,
        "requests": requests,
        "elapsed_s": elapsed,
        "requests_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "outcomes": dict(sorted(outcomes.items())),
        "served": outcomes.get("ok", 0),
        "busy_retries": busy_retries,
        "latency_mean_s": (sum(latencies) / len(latencies)
                           if latencies else 0.0),
        "service": status.get("service", {}),
    }
    if split is not None:
        stats["latency_split"] = split
    if drain:
        stats["drain"] = await admin.drain()
    await admin.close()
    return stats
