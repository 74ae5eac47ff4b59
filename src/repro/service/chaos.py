"""Scripted fault scenarios asserting the fleet's wear-exactness.

The limited-use guarantee survives only if *every* crash/retry
interleaving preserves three invariants, which each scenario re-checks
after the dust settles:

1. **wear-on-disk >= wear-acknowledged** - every ``ok`` response a
   client received is covered by a recovered attempt (a response may be
   lost to a crash, a committed attempt may not);
2. **no double-charged wear** - each idempotency key appears at most
   once across the shard's entire durable history (archive + active
   WAL), and a retry carrying a known key replays the recorded response
   byte-identically;
3. **bit-identical recovery** - recovering a shard's ledger lands on
   exactly the per-tenant wear arrays an uninterrupted sequential drive
   of the same accepted history produces.

Scenarios (``repro chaos --scenario ...``):

- ``kill-mid-batch``   - SIGKILL one shard while a retrying
  ``run_loadgen`` is mid-flight; the supervisor restarts it through
  recovery and the load finishes against the recovered shard.
- ``torn-tail``        - SIGKILL the fleet, then corrupt one shard's
  WAL with a torn trailing record; recovery must truncate exactly it.
- ``restart-storm``    - kill/restart one shard repeatedly between
  bursts of traffic, exercising repeated recovery off the same ledger.
- ``retry-race``       - capture keyed responses, SIGKILL the shard,
  restart it, then re-send the *same* keys: every reply must be
  byte-identical and charge no additional wear.

Every scenario runs real shard subprocesses under a
:class:`~repro.service.supervisor.FleetSupervisor`; nothing is mocked.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.obs.export import read_wal_events
from repro.obs.recorder import OBS
from repro.service.client import (
    RetryPolicy,
    provision_population,
    run_loadgen,
    tenant_population,
)
from repro.service.fleet import FLEET_MAP_NAME, FleetClient, shard_index
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.supervisor import FleetSupervisor

__all__ = ["SCENARIOS", "run_scenario", "run_chaos",
           "check_shard_invariants", "InvariantViolation"]

_STATE_FIELDS = ("used", "bank_accesses", "bank_dead", "current",
                 "total_accesses")


class InvariantViolation(ReproError):
    """A chaos scenario caught the service breaking wear exactness."""


# ----------------------------------------------------------------------
# Invariant checking
def _recover_hub(ledger_dir: str) -> WearHub:
    hub = WearHub(WearLedger(ledger_dir))
    hub.recover()
    hub.ledger.close()
    return hub


def _drive_reference(records: list[dict], ref_dir: str) -> WearHub:
    """Uninterrupted sequential re-drive of one shard's full history."""
    hub = WearHub(WearLedger(ref_dir))
    hub.ledger.open_for_append()
    for record in records:
        if record["op"] == "provision":
            response = hub.provision(record)
            if response["status"] != "ok":
                raise InvariantViolation(
                    f"provision record {record['seq']} does not re-drive: "
                    f"{response}")
        elif record["op"] == "access":
            rid = record.get("rid")
            trace = record.get("trace")
            if rid or trace:
                item = (record["tenant"], rid, trace)
            else:
                item = record["tenant"]
            hub.serve_round([item])
        else:
            raise InvariantViolation(
                f"unknown op in record {record['seq']}: {record['op']!r}")
    hub.ledger.close()
    return hub


def _tenant_arrays(hub: WearHub, name: str) -> dict:
    tenant = hub.tenants[name]
    state, row = tenant.pool.state, tenant.row
    arrays = {field: np.asarray(getattr(state, field)[row]).copy()
              for field in _STATE_FIELDS}
    arrays["lifetime"] = state.lifetime[row].copy()
    arrays["attempts"] = tenant.attempts
    arrays["served"] = tenant.served
    return arrays


def check_shard_invariants(ledger_dir: str, *,
                           acknowledged_ok: dict[str, int] | None = None,
                           ref_dir: str) -> dict:
    """Audit one (dead) shard's ledger; raises :class:`InvariantViolation`.

    Reads the full durable history (sealed segments + active WAL,
    truncating a torn tail exactly as recovery would), re-drives it
    sequentially on a fresh hub in ``ref_dir``, recovers the real
    ledger through the production path, and cross-checks the two bit
    for bit.  ``acknowledged_ok`` maps tenant names to the number of
    ``ok`` responses a client actually received.
    """
    ledger = WearLedger(ledger_dir)
    _, active = ledger.replay()
    archived = ledger.archived_records()
    ledger.close()
    full = archived + active

    # Invariant: no idempotency key appears twice anywhere in history.
    seen_rids: set[tuple[str, str]] = set()
    for record in full:
        rid = record.get("rid")
        if rid is None:
            continue
        key = (record["tenant"], rid)
        if key in seen_rids:
            raise InvariantViolation(
                f"idempotency key {key!r} was charged twice "
                f"(double-spent wear) in {ledger_dir}")
        seen_rids.add(key)

    reference = _drive_reference(full, ref_dir)
    recovered = _recover_hub(ledger_dir)
    if set(reference.tenants) != set(recovered.tenants):
        raise InvariantViolation(
            f"recovered tenants {sorted(recovered.tenants)} != "
            f"re-driven tenants {sorted(reference.tenants)}")

    attempts_by_tenant: dict[str, int] = {}
    for name in reference.tenants:
        ref, rec = (_tenant_arrays(reference, name),
                    _tenant_arrays(recovered, name))
        for field, value in ref.items():
            got = rec[field]
            equal = (np.array_equal(got, value)
                     if isinstance(value, np.ndarray) else got == value)
            if not equal:
                raise InvariantViolation(
                    f"tenant {name!r} field {field!r} diverged after "
                    f"recovery: re-drive has {value!r}, recovery has "
                    f"{got!r}")
        attempts_by_tenant[name] = rec["attempts"]
        if acknowledged_ok:
            acked = acknowledged_ok.get(name, 0)
            if rec["served"] < acked:
                raise InvariantViolation(
                    f"tenant {name!r}: recovered served {rec['served']} "
                    f"< acknowledged ok responses {acked} - wear on "
                    f"disk lost an acknowledged access")
    return {
        "records": len(full),
        "archived": len(archived),
        "active": len(active),
        "tenants": len(reference.tenants),
        "keyed": len(seen_rids),
        "attempts": attempts_by_tenant,
    }


def _acked_ok(responses: list[tuple[str, dict]]) -> dict[str, int]:
    acked: dict[str, int] = {}
    for tenant, response in responses:
        if response.get("status") == "ok":
            acked[tenant] = acked.get(tenant, 0) + 1
    return acked


# ----------------------------------------------------------------------
# Scenario plumbing
def _supervisor(root_dir: str, shards: int, *,
                snapshot_every: int = 8,
                segment_records: int = 24) -> FleetSupervisor:
    # obs_trace: shards write per-incarnation trace files, so a failed
    # scenario leaves a merged timeline showing the doomed request's
    # path across the crash (see ``run_scenario``).
    return FleetSupervisor(root_dir, shards, window_s=0.001,
                           snapshot_every=snapshot_every,
                           segment_records=segment_records,
                           max_restarts=50, restart_backoff_s=0.02,
                           obs_trace=True)


def _retry() -> RetryPolicy:
    return RetryPolicy(retries=8, base_s=0.02, cap_s=0.4)


def _check_fleet(sup: FleetSupervisor, root_dir: str,
                 acknowledged_ok: dict[str, int] | None = None) -> dict:
    per_shard = {}
    for index in range(sup.shard_count):
        acked = None
        if acknowledged_ok is not None:
            acked = {name: count
                     for name, count in acknowledged_ok.items()
                     if shard_index(name, sup.shard_count) == index}
        per_shard[str(index)] = check_shard_invariants(
            sup.ledger_dir(index), acknowledged_ok=acked,
            ref_dir=os.path.join(root_dir, f"reference-{index:03d}"))
    return per_shard


async def _drive_tracked(client: FleetClient, plan: list[tuple[str, str]],
                         ) -> list[tuple[str, dict]]:
    responses = []
    for tenant, rid in plan:
        responses.append((tenant, await client.access(tenant, rid=rid)))
    return responses


def _plan(tenants: list[str], requests: int, tag: str,
          ) -> list[tuple[str, str]]:
    return [(tenants[index % len(tenants)], f"{tag}-{index:06d}")
            for index in range(requests)]


async def _provision_population(client: FleetClient, tenants: int,
                                seed: int) -> list[str]:
    payloads = tenant_population(tenants, seed)
    # Odd-indexed tenants run a mixed fault pipeline so crash recovery
    # exercises the stepped fault-RNG replay path, not just closed form.
    for payload in payloads[1::2]:
        payload["faults"] = {"misfire_rate": 0.05,
                             "stuck_closed_probability": 0.2,
                             "timeout_rate": 0.02}
    await provision_population(client, payloads)
    return [payload["tenant"] for payload in payloads]


# ----------------------------------------------------------------------
# Scenarios
def scenario_kill_mid_batch(root_dir: str, *, shards: int, tenants: int,
                            requests: int, seed: int) -> dict:
    """SIGKILL one shard mid-load; the retrying loadgen must finish."""
    with _supervisor(root_dir, shards) as sup:
        async def drive() -> dict:
            victim = 0
            load = asyncio.create_task(run_loadgen(
                sup.map_path, tenants=tenants, requests=requests,
                concurrency=4, seed=seed, retry=_retry()))
            # Kill on the victim's first access record, so the load is
            # under way there and must retry across the crash.  Reading
            # the WAL takes no ledger lock, thread or connection, so the
            # kill follows that record within one poll.
            ledger_dir = sup.ledger_dir(victim)
            while not load.done():
                if any(event["op"] == "access"
                       for event in read_wal_events(ledger_dir)):
                    break
                await asyncio.sleep(0.002)
            if load.done():
                await load
                raise InvariantViolation(
                    f"the load finished before shard {victim} was "
                    f"killed; nothing retried across the crash")
            sup.kill_shard(victim)
            # Restart in a thread: workers on the healthy shards keep
            # running while the victim recovers.
            while not all(sup.alive()):
                await asyncio.to_thread(sup.poll)
                await asyncio.sleep(0.05)
            stats = await load
            if not stats["reconnects"]:
                raise InvariantViolation(
                    f"shard {victim} was killed after its last request; "
                    f"nothing reconnected across the crash")
            return stats

        stats = drive_stats = asyncio.run(drive())
        if sum(stats["outcomes"].values()) != requests:
            raise InvariantViolation(
                f"loadgen dropped requests: {stats['outcomes']}")
    shards_report = _check_fleet(sup, root_dir)
    return {"loadgen": drive_stats, "restarts": sup.restarts,
            "shards": shards_report}


def scenario_torn_tail(root_dir: str, *, shards: int, tenants: int,
                       requests: int, seed: int) -> dict:
    """Power-cut the fleet, tear one WAL's tail; recovery must truncate."""
    import signal

    sup = _supervisor(root_dir, shards)
    sup.start()
    try:
        async def drive() -> tuple[list[str], list[tuple[str, dict]]]:
            client = FleetClient(sup.map_path, retry=_retry(),
                                 jitter_seed=seed)
            names = await _provision_population(client, tenants, seed)
            responses = await _drive_tracked(
                client, _plan(names, requests, f"tt-{seed}"))
            await client.close()
            return names, responses

        _, responses = asyncio.run(drive())
        # Power cut: SIGKILL everything, no drain, no final snapshot.
        for index in range(shards):
            sup.kill_shard(index, signal.SIGKILL)
    finally:
        sup.stop()

    # The power cut itself may already have torn the tail (killed
    # mid-write) or left the WAL freshly rotated (empty); the intact
    # prefix is everything up to the last complete newline.
    wal_path = os.path.join(sup.ledger_dir(0), "wal.jsonl")
    with open(wal_path, "rb") as handle:
        raw = handle.read()
    intact = raw[:raw.rfind(b"\n") + 1] if b"\n" in raw else b""
    with open(wal_path, "wb") as handle:
        handle.write(intact)
        handle.write(b'{"op":"access","tenant":"torn","rid":"torn-0","seq')

    shards_report = _check_fleet(sup, root_dir,
                                 acknowledged_ok=_acked_ok(responses))
    with open(wal_path, "rb") as handle:
        if handle.read() != intact:
            raise InvariantViolation(
                "torn WAL tail was absorbed instead of truncated")
    return {"responses": len(responses), "shards": shards_report}


def scenario_restart_storm(root_dir: str, *, shards: int, tenants: int,
                           requests: int, seed: int) -> dict:
    """Repeated kill/recover cycles on one shard between traffic bursts."""
    storms = 3
    with _supervisor(root_dir, shards) as sup:
        async def drive() -> list[tuple[str, dict]]:
            client = FleetClient(sup.map_path, retry=_retry(),
                                 jitter_seed=seed)
            names = await _provision_population(client, tenants, seed)
            plan = _plan(names, requests, f"rs-{seed}")
            burst = max(1, len(plan) // (storms + 1))
            responses = []
            for storm in range(storms + 1):
                chunk = plan[storm * burst:(storm + 1) * burst]
                responses.extend(await _drive_tracked(client, chunk))
                if storm < storms:
                    victim = storm % shards
                    sup.kill_shard(victim)
                    while not all(sup.alive()):
                        sup.poll()
                        await asyncio.sleep(0.02)
            responses.extend(await _drive_tracked(
                client, plan[(storms + 1) * burst:]))
            await client.close()
            return responses

        responses = asyncio.run(drive())
        restarts = list(sup.restarts)
        if sum(restarts) != storms:
            raise InvariantViolation(
                f"expected {storms} supervised restarts, saw {restarts}")
    shards_report = _check_fleet(sup, root_dir,
                                 acknowledged_ok=_acked_ok(responses))
    return {"responses": len(responses), "restarts": restarts,
            "shards": shards_report}


def scenario_retry_race(root_dir: str, *, shards: int, tenants: int,
                        requests: int, seed: int) -> dict:
    """Same-key retries across a crash must replay, never re-charge."""
    with _supervisor(root_dir, shards) as sup:
        async def drive() -> dict:
            client = FleetClient(sup.map_path, retry=_retry(),
                                 jitter_seed=seed)
            names = await _provision_population(client, tenants, seed)
            plan = _plan(names, requests, f"rr-{seed}")
            first = await _drive_tracked(client, plan)

            # Crash every shard mid-conversation, recover, then replay
            # the *same* keys - the client "never heard back" and
            # retries everything.
            for index in range(shards):
                sup.kill_shard(index)
            while not all(sup.alive()):
                sup.poll()
                await asyncio.sleep(0.05)

            retried = await _drive_tracked(client, plan)
            await client.close()
            mismatches = [
                (rid, a, b)
                for (tenant, rid), (_, a), (_, b)
                in zip(plan, first, retried) if a != b]
            return {"first": first, "retried": retried,
                    "mismatches": mismatches}

        result = asyncio.run(drive())
        if result["mismatches"]:
            rid, a, b = result["mismatches"][0]
            raise InvariantViolation(
                f"retry of key {rid!r} after crash-recovery changed the "
                f"response: {a!r} -> {b!r} "
                f"(+{len(result['mismatches']) - 1} more)")
    shards_report = _check_fleet(
        sup, root_dir, acknowledged_ok=_acked_ok(result["first"]))
    return {"responses": len(result["first"]), "restarts": sup.restarts,
            "shards": shards_report}


def _write_scenario_timeline(root_dir: str) -> dict | None:
    """Merge the scenario's shard traces and WALs into ``timeline.jsonl``.

    Best-effort by design: timeline assembly must never turn a passing
    scenario into a failure (or mask a violation with a secondary
    exception), so a fleet that never published its map - or any read
    error - degrades to ``None``.
    """
    from repro.obs.aggregate import fleet_timeline

    map_path = os.path.join(root_dir, FLEET_MAP_NAME)
    if not os.path.exists(map_path):
        return None
    path = os.path.join(root_dir, "timeline.jsonl")
    try:
        events = fleet_timeline(map_path, out=path, timeout_s=1.0)
    except Exception:  # noqa: BLE001 - artifact, not an invariant
        return None
    return {"path": path, "events": len(events)}


SCENARIOS = {
    "kill-mid-batch": scenario_kill_mid_batch,
    "torn-tail": scenario_torn_tail,
    "restart-storm": scenario_restart_storm,
    "retry-race": scenario_retry_race,
}


def run_scenario(name: str, root_dir: str, *, shards: int = 2,
                 tenants: int = 6, requests: int = 60,
                 seed: int = 11) -> dict:
    """Run one named scenario; returns its report, raises on violation."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; "
            f"pick from {sorted(SCENARIOS)}")
    if shards < 1 or tenants < 1 or requests < 1:
        raise ConfigurationError(
            "shards, tenants and requests must all be >= 1")
    os.makedirs(root_dir, exist_ok=True)
    started = time.perf_counter()
    try:
        report = scenario(root_dir, shards=shards, tenants=tenants,
                          requests=requests, seed=seed)
    finally:
        # Written even when the scenario raised: a violation's artifact
        # of record is exactly this correlated timeline.
        timeline = _write_scenario_timeline(root_dir)
    report["scenario"] = name
    report["elapsed_s"] = time.perf_counter() - started
    if timeline is not None:
        report["timeline"] = timeline
    if OBS.enabled:
        OBS.event("chaos.scenario_passed", scenario=name,
                  elapsed_s=report["elapsed_s"])
    return report


def run_chaos(names: list[str], root_dir: str, *, shards: int = 2,
              tenants: int = 6, requests: int = 60,
              seed: int = 11) -> dict:
    """Run several scenarios in order; collects reports and violations."""
    reports = []
    violations = []
    for name in names:
        scenario_root = os.path.join(root_dir, name)
        try:
            reports.append(run_scenario(
                name, scenario_root, shards=shards, tenants=tenants,
                requests=requests, seed=seed))
        except InvariantViolation as exc:
            violations.append({"scenario": name, "violation": str(exc)})
    return {"scenarios": reports, "violations": violations,
            "passed": not violations}


def write_chaos_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
