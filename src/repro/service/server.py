"""The asyncio TCP front end of the limited-use authorization service.

One :class:`WearService` owns a listener, a
:class:`~repro.service.hub.WearHub` (engine state + durable ledger) and
a :class:`~repro.service.batcher.RequestBatcher`.  Connections are
handled concurrently; every request frame gets exactly one response
frame - overload answers ``busy`` (queue-depth cap) or ``rate-limited``
(per-tenant token bucket), never a silent drop.

Lifecycle: :meth:`WearService.start` replays the ledger (so a SIGKILL'd
predecessor's wear history is reconstructed exactly), starts serving,
and optionally writes a ready file naming the bound port (the CI smoke
leg binds port 0).  ``drain`` - the protocol op or SIGTERM/SIGINT -
stops intake, flushes queued rounds, writes a final snapshot, closes
the connections still open and exits cleanly.  A failed WAL write stops
the service the same way, except that every request it holds or
receives before its connection closes is answered ``error``, no
snapshot is written (it would claim the lost records) and
:func:`run_service` raises, so ``repro serve`` exits nonzero and a
supervisor restarts the shard through recovery; a fleet client reads
the close as a connection failure and reconnects to the restarted
shard.  Recovery charges any record that reached the disk unanswered:
wear on disk never falls below the wear the service acknowledged.

A failed snapshot loses nothing (the WAL holds every acknowledged
record): a periodic one is counted in ``snapshot_failures``, and a
failed drain snapshot still ends the drain before :func:`run_service`
raises it.  A response too large for one frame is answered ``error``.

The handler counts each connection in and out of the batcher, which
closes a round once every open connection has a request queued.

Rate-limit denials are deliberately *not* WAL-logged: they consume no
wear and depend on wall-clock timing, which replay cannot reproduce.
Capacity refusals follow the same rule - predictive admission control
(:mod:`repro.capacity.policy`) runs entirely before the batcher and its
advisory ``renewal_warning`` annotations are added to responses after
the hub has committed them, so enabling it changes neither wear arrays
nor WAL bytes (pinned in ``tests/service/test_capacity_service.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, LedgerWriteError, ReproError
from repro.obs.export import peak_rss_bytes
from repro.obs.recorder import OBS
from repro.service.batcher import RequestBatcher
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.protocol import (
    cap_socket_reads,
    denied,
    ok,
    read_frame,
    write_frame,
)

__all__ = ["ServiceConfig", "WearService", "run_service"]


@dataclass
class ServiceConfig:
    """Everything that shapes one service instance."""

    ledger_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    window_s: float = 0.002
    max_batch: int = 64
    queue_cap: int = 256
    rate_limit: float = 0.0      # per-tenant requests/s; 0 disables
    rate_burst: int = 8
    snapshot_every: int = 0      # rounds between snapshots; 0 = drain only
    segment_records: int = 0     # rotate WAL past this size; 0 disables
    ready_file: str | None = None
    capacity_horizon: int = 0    # forecast look-ahead; 0 disables advisor
    capacity_warn: float = 0.5   # P(exhaust within horizon) warn bar
    capacity_refuse: float = 0.0  # hard-refusal bar; 0 = advisory only
    capacity_refresh: int = 64   # accesses between advisor refits
    capacity_seed: int = 0       # advisor Monte Carlo stream

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise ConfigurationError("queue_cap must be >= 1")
        if self.rate_limit < 0 or self.rate_burst < 1:
            raise ConfigurationError(
                "rate_limit must be >= 0 and rate_burst >= 1")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0")
        if self.segment_records < 0:
            raise ConfigurationError("segment_records must be >= 0")
        if self.segment_records and not self.snapshot_every:
            raise ConfigurationError(
                "segment_records requires snapshot_every: rotation is "
                "only legal behind a covering snapshot")
        if self.capacity_horizon < 0:
            raise ConfigurationError("capacity_horizon must be >= 0")
        if self.capacity_refresh < 1:
            raise ConfigurationError("capacity_refresh must be >= 1")
        if self.capacity_horizon:
            # Threshold sanity is CapacityPolicy's job; fail here so a
            # bad flag kills `serve` at startup, not at first refresh.
            from repro.capacity.policy import CapacityPolicy

            CapacityPolicy(horizon=self.capacity_horizon,
                           warn_probability=self.capacity_warn,
                           refuse_probability=self.capacity_refuse)


class _TokenBucket:
    """Classic token bucket; one per tenant."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic()

    def allow(self) -> bool:
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class WearService:
    """A running (or about-to-run) service instance."""

    config: ServiceConfig
    hub: WearHub = field(init=False)
    batcher: RequestBatcher = field(init=False)

    def __post_init__(self) -> None:
        self.ledger = WearLedger(self.config.ledger_dir)
        self.hub = WearHub(self.ledger)
        self.batcher = RequestBatcher(self.hub,
                                      window_s=self.config.window_s,
                                      max_batch=self.config.max_batch)
        self.advisor = None
        if self.config.capacity_horizon:
            # The advisor's refits solve with scipy.optimize: import it
            # at start-up, not inside the request whose refresh runs one.
            import scipy.optimize  # noqa: F401

            from repro.capacity.policy import CapacityAdvisor, CapacityPolicy

            self.advisor = CapacityAdvisor(
                CapacityPolicy(
                    horizon=self.config.capacity_horizon,
                    warn_probability=self.config.capacity_warn,
                    refuse_probability=self.config.capacity_refuse),
                refresh_every=self.config.capacity_refresh,
                seed=self.config.capacity_seed)
        self._buckets: dict[str, _TokenBucket] = {}
        self._server: asyncio.AbstractServer | None = None
        #: Each running connection handler's task and its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._done: asyncio.Event | None = None
        self._stopping: asyncio.Task | None = None
        self._draining = False
        self._last_snapshot_round = 0
        self._started_monotonic = time.monotonic()
        self.recovered_records = 0
        self.snapshot_failures = 0
        #: The failed drain snapshot, which :func:`run_service` raises.
        self.drain_failure: LedgerWriteError | None = None

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Recover the ledger, bind the listener, announce readiness."""
        self.recovered_records = self.hub.recover()
        self._done = asyncio.Event()
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        host, port = self._server.sockets[0].getsockname()[:2]
        if self.config.ready_file:
            payload = json.dumps({"host": host, "port": port})
            tmp = f"{self.config.ready_file}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, self.config.ready_file)
        if OBS.enabled:
            OBS.event("svc.started", host=host, port=port,
                      recovered=self.recovered_records)
        return host, port

    async def wait_closed(self) -> None:
        await self._done.wait()

    @property
    def failure(self) -> ReproError | None:
        """The failed WAL write (or round) that stops the service."""
        return self.ledger.failure or self.batcher.failure

    def stop(self) -> None:
        """Start :meth:`shutdown` in its own task (idempotent)."""
        if self._stopping is None:
            self._stopping = asyncio.get_running_loop().create_task(
                self.shutdown())

    async def shutdown(self) -> None:
        """Graceful drain: flush rounds, snapshot, release everything.

        A drain returns once every connection handler has ended.  After
        a failure no snapshot is written, since it would cover records
        the WAL lost; the connections close all the same.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self.batcher.drain()
        if self.failure is None:
            try:
                self.hub.write_snapshot()
            except OSError as exc:
                # The WAL still holds every record: recovery replays it.
                self.drain_failure = LedgerWriteError(
                    f"drain snapshot {self.ledger.snapshot_path} "
                    f"failed: {exc}")
        self.ledger.close()
        # The batcher has answered every request it held (``error``
        # after a failure): close the connections still open and let
        # their handlers end, since one the closing loop cancels makes
        # Python 3.11 log an error, and on 3.12.1+ Server.wait_closed
        # waits for every connection to drop.
        while self._connections:
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if OBS.enabled:
            OBS.event("svc.drained", rounds=self.hub.rounds)
        self._done.set()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        cap_socket_reads(writer.transport)
        self.batcher.connection_opened()
        task = asyncio.current_task()
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ConfigurationError as exc:
                    await write_frame(writer,
                                      denied("bad-request", str(exc)))
                    break
                if request is None:
                    break
                response, drain_after = await self._dispatch(request)
                try:
                    await write_frame(writer, response)
                except ConfigurationError as exc:
                    # Too large for one frame: nothing was written, so
                    # the connection stays usable.
                    await write_frame(writer, denied(
                        "error", f"{request.get('op')!r} response: {exc}",
                        error=type(exc).__name__))
                if drain_after:
                    # Shut down from a fresh task: shutdown waits for
                    # open connections, which includes this handler.
                    self.stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.batcher.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict) -> tuple[dict, bool]:
        op = request.get("op")
        if OBS.enabled:
            OBS.metrics.inc("svc.requests")
        if self.failure is not None:
            return self._failed(self.failure), False
        started = time.perf_counter()
        try:
            if op == "provision":
                if self._draining:
                    return denied("draining", "service is draining"), False
                return self.hub.provision(request), False
            if op == "access":
                response = await self._access(request)
                if OBS.enabled:
                    OBS.metrics.observe("svc.request_latency_s",
                                        time.perf_counter() - started)
                return response, False
            if op == "status":
                return self._status(request), False
            if op == "metrics":
                return self._metrics(), False
            if op == "drain":
                return self._drain_response(), True
            return denied("bad-request", f"unknown op {op!r}"), False
        except ReproError as exc:
            if self.failure is not None:
                return self._failed(exc), False
            return denied("error", str(exc),
                          error=type(exc).__name__), False

    def _failed(self, exc: ReproError) -> dict:
        """Answer ``error`` and stop: the ledger takes no more writes."""
        self.stop()
        return denied("error", f"service stopping: {exc}",
                      error=type(exc).__name__)

    async def _access(self, request: dict) -> dict:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return denied("bad-request", "tenant must be a non-empty string")
        rid = request.get("rid")
        if rid is not None and (not isinstance(rid, str) or not rid):
            return denied("bad-request",
                          "rid must be a non-empty string when present",
                          tenant=tenant)
        trace = request.get("trace")
        if trace is not None and (not isinstance(trace, str) or not trace):
            return denied("bad-request",
                          "trace must be a non-empty string when present",
                          tenant=tenant)
        if rid is not None:
            # Idempotent replay beats every other gate (including
            # draining): the original attempt already committed its
            # wear, so answering costs nothing and retries stay exact.
            recorded = self.hub.recorded_response(tenant, rid)
            if recorded is not None:
                self.hub.idempotent_replays += 1
                if OBS.enabled:
                    OBS.metrics.inc("svc.idempotent_replays")
                return recorded
        if self._draining:
            return denied("draining", "service is draining", tenant=tenant)
        if self.batcher.depth >= self.config.queue_cap:
            if OBS.enabled:
                OBS.metrics.inc("svc.busy")
            return denied("busy",
                          f"queue depth {self.batcher.depth} at cap "
                          f"{self.config.queue_cap}; retry later",
                          tenant=tenant)
        if self.config.rate_limit:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _TokenBucket(
                    self.config.rate_limit, self.config.rate_burst)
            if not bucket.allow():
                if OBS.enabled:
                    OBS.metrics.inc("svc.rate_limited")
                return denied("rate-limited",
                              f"tenant {tenant!r} exceeded "
                              f"{self.config.rate_limit:g} requests/s",
                              tenant=tenant)
        params = None
        if self.advisor is not None:
            record = self.hub.tenants.get(tenant)
            params = record.params if record is not None else None
            self.advisor.maybe_refresh(self.hub.wear_observations)
            refusal = self.advisor.should_refuse(tenant, params)
            if refusal is not None:
                # Refusal happens before the batcher, like rate-limit
                # denials: no wear, no WAL record.
                if OBS.enabled:
                    OBS.metrics.inc("svc.capacity_refused")
                return denied(
                    "capacity",
                    f"tenant {tenant!r} forecast to exhaust within "
                    f"{refusal['horizon']} accesses "
                    f"(p={refusal['p_exhaust']:.2f}); renew before "
                    f"retrying",
                    tenant=tenant, **refusal)
        response = await self.batcher.submit(tenant, rid, trace)
        self._maybe_snapshot()
        if self.advisor is not None and response.get("status") == "ok":
            warning = self.advisor.renewal_warning(tenant, params)
            if warning is not None:
                # Annotate a copy: the hub retains its own response
                # object for idempotent replay and must stay untouched.
                if OBS.enabled:
                    OBS.metrics.inc("svc.renewal_warnings")
                response = dict(response, renewal_warning=warning)
        return response

    def _maybe_snapshot(self) -> None:
        every = self.config.snapshot_every
        if not every:
            return
        if self.hub.rounds - self._last_snapshot_round >= every:
            self._last_snapshot_round = self.hub.rounds
            try:
                self.hub.write_snapshot()
            except OSError:
                # The WAL holds every acknowledged record, so nothing is
                # lost; rotation waits for a snapshot that covers it.
                self.snapshot_failures += 1
                return
            limit = self.config.segment_records
            if limit and (self.ledger.next_seq
                          - self.ledger.active_base) >= limit:
                self.ledger.rotate_segment()

    def _status(self, request: dict) -> dict:
        response = self.hub.status(request.get("tenant"))
        if response["status"] == "ok" and "tenants" in response:
            response["service"] = dict(
                self.batcher.stats(), queue_depth=self.batcher.depth,
                draining=self._draining, recovered=self.recovered_records,
                snapshot_failures=self.snapshot_failures)
        return response

    def _metrics(self) -> dict:
        """The shard's telemetry snapshot for fleet aggregation.

        Per-tenant wear gauges come straight from the engine's
        touched-state queries (no recorder needed), so they are always
        present; the registry snapshot rides along only when the
        recorder is on (``serve --obs-metrics``), since with it off
        nothing was recorded to merge.
        """
        capacity = None
        if self.advisor is not None:
            capacity = {
                "refreshes": self.advisor.refreshes,
                "estimate": (self.advisor.estimate.to_payload()
                             if self.advisor.estimate is not None else None),
                "forecasts": {name: forecast.to_payload()
                              for name, forecast
                              in sorted(self.advisor.forecasts.items())},
            }
        return ok(
            kind="shard-metrics",
            shard={
                "pid": os.getpid(),
                "peak_rss_bytes": peak_rss_bytes(),
                "uptime_s": time.monotonic() - self._started_monotonic,
                "draining": self._draining,
                "recovered_records": self.recovered_records,
                "obs_enabled": bool(OBS.enabled),
            },
            service=dict(self.batcher.stats(),
                         queue_depth=self.batcher.depth,
                         idempotent_replays=self.hub.idempotent_replays,
                         snapshot_failures=self.snapshot_failures),
            metrics=OBS.metrics.snapshot() if OBS.enabled else None,
            tenants=self.hub.wear_gauges(),
            observations=self.hub.wear_observations(),
            capacity=capacity)

    def _drain_response(self) -> dict:
        return ok(**self.batcher.stats())


async def run_service(config: ServiceConfig) -> None:
    """Run a service until drained (op or SIGTERM/SIGINT).

    Raises the failure that stopped it, or a failed drain snapshot.
    """
    service = WearService(config)
    loop = asyncio.get_running_loop()
    # The handlers go in before start() writes the ready file, which a
    # supervisor may answer with a signal at once; a stop requested
    # before start() returns drains as soon as it does.
    started = False
    stop_requested = False

    def request_stop() -> None:
        nonlocal stop_requested
        if started:
            service.stop()
        else:
            stop_requested = True

    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, request_stop)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await service.start()
        started = True
        if stop_requested:
            service.stop()
        await service.wait_closed()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    if service.failure is not None:
        raise service.failure
    if service.drain_failure is not None:
        raise service.drain_failure
