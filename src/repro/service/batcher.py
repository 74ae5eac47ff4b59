"""Coalescing ``access`` requests into vectorized engine rounds.

Concurrent clients each want one secret read; the engine wants one
``step_access`` kernel call over many rows.  The batcher bridges them:
queued requests are drained into a single round (capped at
``max_batch``) and served through
:meth:`repro.service.hub.WearHub.serve_round`.

A round closes as soon as no further request can join it.  The server
answers each connection's request before it reads that connection's
next frame, so a connection has at most one request in flight: once
the queue holds ``min(max_batch, open connections)`` requests, waiting
longer only adds latency.  ``window_s`` is the upper limit on how long
a round gathers.  An open connection with nothing queued (an idle
admin client, say) could still send, so it keeps the window open; a
connection that closes wakes the batcher, since one fewer request can
now fill the round.  :meth:`RequestBatcher.stats` counts the rounds
that waited the whole window in ``window_expired``.

Two invariants keep batching bit-identical to sequential handling,
however requests are grouped into rounds:

- **one request per tenant per round** - a tenant appearing twice in
  the queue is served across consecutive rounds, preserving its
  per-access kernel/readout RNG interleaving;
- **FIFO within a tenant** - the deferred duplicate keeps its queue
  position relative to later requests for the same tenant.

A round that raises (a failed WAL write, above all) stops the batcher:
the round's requests and every queued one are answered with the error,
later submits are refused, and :attr:`RequestBatcher.failure` tells the
server to stop.  Serving on would append records after a lost one.

Backpressure is the caller's job: the server checks
:attr:`RequestBatcher.depth` against its queue cap *before* submitting
and answers ``busy`` instead of growing the queue without bound.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable

from repro.errors import ConfigurationError, ReproError
from repro.obs.recorder import OBS

__all__ = ["RequestBatcher"]


class RequestBatcher:
    """Gather concurrent access requests and serve them in rounds."""

    def __init__(self, hub, window_s: float = 0.002,
                 max_batch: int = 64) -> None:
        if window_s < 0:
            raise ConfigurationError("window_s must be >= 0")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.hub = hub
        self.window_s = window_s
        self.max_batch = max_batch
        # Entries: (tenant, rid, trace, enqueued_perf_or_None, future).
        self._queue: list[tuple] = []
        self._arrived: asyncio.Event = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None
        # Open client connections, counted by the server.  Zero means
        # nobody counts them, and every round waits the whole window.
        self.connections = 0
        #: The error that stopped the batcher, once a round raised.
        self.failure: ReproError | None = None
        # Batch-size distribution for status/bench reporting.
        self.rounds = 0
        self.requests = 0
        self.window_expired = 0
        self.batch_sizes: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued (the backpressure signal)."""
        return len(self._queue)

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def connection_opened(self) -> None:
        """Count in a connection that may submit requests."""
        self.connections += 1

    def connection_closed(self) -> None:
        """Count a connection out; the round it held open may close."""
        self.connections -= 1
        self._arrived.set()

    async def submit(self, tenant: str, rid: str | None = None,
                     trace: str | None = None) -> dict:
        """Queue one access request; resolves with its response.

        ``rid`` is the client's idempotency key and ``trace`` its
        correlation id, both carried through to the hub so the round's
        WAL record persists them.  The enqueue timestamp (recorded only
        while observability is on) feeds the ``svc.queue_wait_s``
        histogram - the queue-wait half of the loadgen latency split.
        A failed round raises its error to each request it held and to
        every request queued behind it; a stopped batcher refuses later
        submits.
        """
        if self._closed:
            raise ConfigurationError("batcher is draining")
        enqueued = time.perf_counter() if OBS.enabled else None
        future = asyncio.get_running_loop().create_future()
        self._queue.append((tenant, rid, trace, enqueued, future))
        self._arrived.set()
        return await future

    async def drain(self) -> None:
        """Stop accepting work, flush every queued request, stop the loop."""
        self._closed = True
        self._arrived.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------------
    def _full(self) -> bool:
        """Whether every request that could join the round is queued."""
        target = min(self.max_batch, self.connections)
        return 0 < target <= len(self._queue)

    async def _gather(self) -> bool:
        """Hold the round open until it is full, the window ends or a
        drain starts; returns whether the window ended first."""
        if self._full():
            return False
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            self._arrived.set()

        timer = asyncio.get_running_loop().call_later(self.window_s, expire)
        try:
            while not (expired or self._closed or self._full()):
                self._arrived.clear()
                await self._arrived.wait()
        finally:
            timer.cancel()
        return expired

    def _stop(self, exc: Exception, futures: Iterable[asyncio.Future]) -> None:
        """Answer the failed round and every queued request with ``exc``."""
        if not isinstance(exc, ReproError):
            wrapped = ReproError(f"engine round failed: {exc!r}")
            wrapped.__cause__ = exc
            exc = wrapped
        self.failure = exc
        self._closed = True
        pending = [*futures, *(entry[-1] for entry in self._queue)]
        self._queue = []
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._arrived.clear()
                await self._arrived.wait()
                continue
            if self.window_s and not self._closed:
                if await self._gather():
                    self.window_expired += 1
            round_items: list[tuple[str, str | None, str | None]] = []
            round_futures: dict[str, asyncio.Future] = {}
            round_waits: list[float] = []
            deferred: list[tuple] = []
            started = time.perf_counter()
            for tenant, rid, trace, enqueued, future in self._queue:
                if (tenant in round_futures
                        or len(round_items) >= self.max_batch):
                    deferred.append((tenant, rid, trace, enqueued, future))
                else:
                    round_items.append((tenant, rid, trace))
                    round_futures[tenant] = future
                    if enqueued is not None:
                        round_waits.append(started - enqueued)
            self._queue = deferred
            if OBS.enabled:
                for wait in round_waits:
                    OBS.metrics.observe("svc.queue_wait_s", wait)
            try:
                responses = self.hub.serve_round(round_items)
            except Exception as exc:
                # After a failed WAL write the ledger refuses every
                # write, and any other error may leave the round partly
                # applied: only a restart through recovery can serve on.
                self._stop(exc, round_futures.values())
                return
            self.rounds += 1
            self.requests += len(round_items)
            size = len(round_items)
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
            if OBS.enabled:
                OBS.metrics.observe("svc.round_latency_s",
                                    time.perf_counter() - started)
            for tenant, future in round_futures.items():
                if not future.done():
                    future.set_result(responses[tenant])
            # Yield so resolved clients can proceed before the next round.
            await asyncio.sleep(0)

    def stats(self) -> dict:
        """The batch-size distribution since startup."""
        sizes = sorted(self.batch_sizes)
        return {
            "rounds": self.rounds,
            "requests": self.requests,
            "window_expired": self.window_expired,
            "batch_size_max": sizes[-1] if sizes else 0,
            "batch_size_mean": (self.requests / self.rounds
                                if self.rounds else 0.0),
            "batch_sizes": {str(size): self.batch_sizes[size]
                            for size in sizes},
        }
