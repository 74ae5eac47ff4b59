"""The fleet supervisor: spawn shards, watch them, restart through recovery.

Each shard is one ``python -m repro.cli serve`` subprocess in its own
session, owning one flock'd ledger directory.  The supervisor's whole
contract is *wear-exact failover*: it never copies or reconstructs
state itself - a crashed shard is simply re-spawned against the same
ledger directory, and the service's own recovery path (snapshot restore
plus WAL tail replay) rebuilds the exact wear history.  The kernel
releases the ledger flock when the process dies, so a SIGKILL'd shard
never wedges its directory.

Restarts are budgeted: a shard flapping more than ``max_restarts``
times marks the fleet failed instead of spinning forever (the
restart-storm chaos scenario pins this).  Between spawns the supervisor
backs off linearly - recovery itself is the useful wait.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import repro
from repro.errors import ConfigurationError
from repro.obs.recorder import OBS
from repro.service.client import read_ready_file
from repro.service.fleet import FLEET_MAP_NAME, write_fleet_map

__all__ = ["FleetSupervisor"]

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__)))


class FleetSupervisor:
    """Own a fleet of shard processes under one root directory."""

    def __init__(self, root_dir: str, shards: int, *,
                 window_s: float = 0.002, max_batch: int = 64,
                 queue_cap: int = 256, snapshot_every: int = 16,
                 segment_records: int = 0, max_restarts: int = 5,
                 restart_backoff_s: float = 0.05,
                 ready_timeout_s: float = 60.0,
                 obs_metrics: bool = True,
                 obs_trace: bool = False) -> None:
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        self.root_dir = root_dir
        self.shard_count = shards
        self.window_s = window_s
        self.max_batch = max_batch
        self.queue_cap = queue_cap
        self.snapshot_every = snapshot_every
        self.segment_records = segment_records
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.ready_timeout_s = ready_timeout_s
        # Shards run with their in-process recorder on (no sinks) so
        # the ``metrics`` op has histograms to export; ``obs_trace``
        # additionally writes per-shard JSONL trace files, the raw
        # material for merged fleet timelines.
        self.obs_metrics = obs_metrics
        self.obs_trace = obs_trace
        self.map_path = os.path.join(root_dir, FLEET_MAP_NAME)
        self.restarts = [0] * shards
        self._procs: list[subprocess.Popen | None] = [None] * shards
        self._stopping = False

    # ------------------------------------------------------------------
    # Paths
    def ledger_dir(self, index: int) -> str:
        return os.path.join(self.root_dir, f"shard-{index:03d}", "ledger")

    def ready_file(self, index: int) -> str:
        return os.path.join(self.root_dir, f"shard-{index:03d}",
                            "ready.json")

    def log_path(self, index: int) -> str:
        return os.path.join(self.root_dir, f"shard-{index:03d}",
                            "serve.log")

    def trace_path(self, index: int) -> str:
        return os.path.join(self.root_dir, f"shard-{index:03d}",
                            "trace.jsonl")

    # ------------------------------------------------------------------
    # Lifecycle
    def publish_map(self) -> None:
        """(Re)write the fleet map, restart counts included.

        Restart counts ride in the map so an external observer - the
        ``repro fleet top`` dashboard polling from another process -
        can report them without reaching into this supervisor.
        """
        write_fleet_map(self.map_path, [
            {"index": index,
             "ledger_dir": self.ledger_dir(index),
             "ready_file": self.ready_file(index),
             "restarts": self.restarts[index]}
            for index in range(self.shard_count)])

    def start(self) -> None:
        """Spawn every shard, wait for readiness, publish the fleet map."""
        os.makedirs(self.root_dir, exist_ok=True)
        for index in range(self.shard_count):
            self._spawn(index)
        self.publish_map()
        for index in range(self.shard_count):
            self._await_ready(index)
        if OBS.enabled:
            OBS.event("fleet.started", shards=self.shard_count,
                      root=self.root_dir)

    def _spawn(self, index: int) -> None:
        shard_dir = os.path.dirname(self.ready_file(index))
        os.makedirs(shard_dir, exist_ok=True)
        # Remove the stale ready file first: clients and _await_ready
        # must only ever see the *new* incarnation's port.
        try:
            os.unlink(self.ready_file(index))
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
        # Shards are an implementation detail of the supervising run;
        # recording each spawn would flood the run registry (and chaos
        # kills would litter it with interrupted rows).
        argv = [sys.executable, "-m", "repro.cli", "serve", "--no-record",
                "--ledger", self.ledger_dir(index),
                "--ready-file", self.ready_file(index),
                "--window-ms", str(self.window_s * 1000.0),
                "--max-batch", str(self.max_batch),
                "--queue-cap", str(self.queue_cap),
                "--snapshot-every", str(self.snapshot_every)]
        if self.segment_records:
            argv += ["--segment-records", str(self.segment_records)]
        if self.obs_metrics:
            argv += ["--obs-metrics"]
        if self.obs_trace:
            argv += ["--trace-out", self.trace_path(index)]
        log = open(self.log_path(index), "ab")
        try:
            self._procs[index] = subprocess.Popen(
                argv, env=env, start_new_session=True,
                stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()

    def _await_ready(self, index: int) -> tuple[str, int]:
        deadline = time.monotonic() + self.ready_timeout_s
        while True:
            proc = self._procs[index]
            if proc is not None and proc.poll() is not None:
                raise ConfigurationError(
                    f"shard {index} exited rc={proc.returncode} before "
                    f"becoming ready; see {self.log_path(index)}")
            try:
                return read_ready_file(self.ready_file(index),
                                       timeout_s=0.25)
            except ConfigurationError:
                if time.monotonic() >= deadline:
                    raise

    # ------------------------------------------------------------------
    # Supervision
    def poll(self) -> list[int]:
        """Detect dead shards and restart them; returns restarted indices.

        A shard over its restart budget raises - a flapping shard means
        its ledger (or the host) is sick, and blind respawns would just
        hammer a wear history the service refuses to serve.
        """
        restarted = []
        for index, proc in enumerate(self._procs):
            if self._stopping or proc is None or proc.poll() is None:
                continue
            if self.restarts[index] >= self.max_restarts:
                raise ConfigurationError(
                    f"shard {index} died rc={proc.returncode} after "
                    f"exhausting its {self.max_restarts}-restart budget")
            self.restarts[index] += 1
            if OBS.enabled:
                OBS.metrics.inc("fleet.restarts")
                OBS.event("fleet.shard_restart", shard=index,
                          rc=proc.returncode,
                          restarts=self.restarts[index])
            time.sleep(self.restart_backoff_s * self.restarts[index])
            self._spawn(index)
            self._await_ready(index)
            restarted.append(index)
        if restarted:
            self.publish_map()
        return restarted

    def alive(self) -> list[bool]:
        return [proc is not None and proc.poll() is None
                for proc in self._procs]

    def fleet_snapshot(self, timeout_s: float = 10.0) -> dict:
        """Poll every live shard's ``metrics`` op and merge the fleet view.

        Per-shard peak RSS (self-reported via the shared
        ``peak_rss_bytes`` plumbing) and this supervisor's restart counts
        land in the snapshot - and in the local recorder as
        ``fleet.shard<i>.*`` gauges when it is on - alongside the
        exactly-merged metrics registries and per-tenant wear gauges.
        """
        from repro.obs.aggregate import collect_fleet_metrics

        snapshot = collect_fleet_metrics(
            self.map_path, alive=self.alive(),
            restarts=list(self.restarts), timeout_s=timeout_s)
        if OBS.enabled:
            OBS.metrics.inc("fleet.snapshots")
            for shard in snapshot["shards"]:
                index = shard["index"]
                OBS.metrics.set_gauge(f"fleet.shard{index}.up",
                                      1.0 if shard.get("alive") else 0.0)
                OBS.metrics.set_gauge(f"fleet.shard{index}.restarts",
                                      shard.get("restarts") or 0)
                if shard.get("peak_rss_bytes"):
                    OBS.metrics.set_gauge(
                        f"fleet.shard{index}.peak_rss_bytes",
                        shard["peak_rss_bytes"])
            # Rebalancing pressure: the pooled-fit outlook the snapshot
            # carries, as gauges (`repro fleet top` and the Prometheus
            # exposition read the same snapshot fields directly).
            capacity = snapshot.get("capacity") or {}
            estimate = capacity.get("estimate")
            if estimate:
                OBS.metrics.set_gauge("fleet.capacity.alpha",
                                      estimate["alpha"])
                OBS.metrics.set_gauge("fleet.capacity.beta",
                                      estimate["beta"])
                OBS.metrics.set_gauge("fleet.capacity.failures",
                                      estimate["failures"])
                OBS.metrics.set_gauge("fleet.capacity.at_risk",
                                      len(capacity.get("at_risk") or ()))
                OBS.metrics.set_gauge(
                    "fleet.capacity.remaining_mean_total",
                    capacity.get("remaining_mean_total") or 0.0)
        return snapshot

    def kill_shard(self, index: int,
                   sig: int = signal.SIGKILL) -> None:
        """Deliver ``sig`` to one shard's process group (chaos hook).

        Waits for the process to be reaped before returning: callers
        poll :meth:`alive` right after, and a signal that has been sent
        but not yet delivered would make the shard look healthy and
        skip the restart entirely.
        """
        proc = self._procs[index]
        if proc is None or proc.poll() is not None:
            return
        if OBS.enabled:
            OBS.metrics.inc("fleet.kills")
        os.killpg(proc.pid, sig)
        proc.wait(timeout=30)

    def stop(self, timeout_s: float = 30.0) -> None:
        """Graceful stop: SIGTERM (drain) every shard, SIGKILL stragglers."""
        self._stopping = True
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                os.killpg(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        for index, proc in enumerate(self._procs):
            if proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
            self._procs[index] = None
        if OBS.enabled:
            OBS.event("fleet.stopped", restarts=sum(self.restarts))

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
