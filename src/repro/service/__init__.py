"""The limited-use authorization service: wear as a long-lived server.

Everything below the protocol line reuses the existing layers - the
vectorized :mod:`repro.engine` kernels, :mod:`repro.faults` injection,
:mod:`repro.sim.checkpoint` atomic writes and the :mod:`repro.obs`
metrics - and adds the deployment shape the paper's Section 5 keystore
implies: many concurrent clients consuming wear-bounded secrets from
live, persistent device state.

Layer map:

- :mod:`repro.service.protocol` - length-prefixed JSON framing shared
  by server, client and tests;
- :mod:`repro.service.ledger` - the append-only wear WAL + snapshots
  (durability and crash recovery);
- :mod:`repro.service.hub` - the synchronous core: pooled
  :class:`~repro.engine.state.WearState` rows, per-tenant keystores and
  fault models, WAL-first accounting, replay;
- :mod:`repro.service.batcher` - coalesces concurrent accesses into
  vectorized engine rounds (bit-identical to sequential handling);
- :mod:`repro.service.server` - the asyncio TCP front end: rate
  limits, backpressure, graceful drain;
- :mod:`repro.service.client` - the protocol client and the one load
  generator, behind ``repro loadgen`` and ``repro fleet run|drive``:
  it drives a list of shards (one server is a fleet of one shard)
  with each worker pinned to one shard;
- :mod:`repro.service.fleet` - tenant-hash partitioning across
  shared-nothing shards and the shard-map-aware :class:`FleetClient`
  with idempotent crash-safe retries;
- :mod:`repro.service.supervisor` - shard process supervision:
  spawn, poll for dead shards, restart-through-recovery;
- :mod:`repro.service.chaos` - scripted fault scenarios (SIGKILL
  mid-batch, torn WAL tails, restart storms, retry races) asserting
  the wear-exactness invariants end to end.

See ``docs/service.md`` for the protocol, the batching window, the
ledger format and the recovery argument, and ``docs/fleet.md`` for
the sharding, failover and idempotency story.
"""

from repro.service.batcher import RequestBatcher
from repro.service.chaos import (
    SCENARIOS,
    InvariantViolation,
    check_shard_invariants,
    run_chaos,
    run_scenario,
)
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    read_ready_file,
    run_loadgen,
    tenant_population,
)
from repro.service.fleet import (
    FleetClient,
    read_fleet_map,
    shard_index,
    write_fleet_map,
)
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.server import ServiceConfig, WearService, run_service
from repro.service.supervisor import FleetSupervisor

__all__ = [
    "FleetClient",
    "FleetSupervisor",
    "InvariantViolation",
    "RequestBatcher",
    "RetryPolicy",
    "SCENARIOS",
    "ServiceClient",
    "ServiceConfig",
    "WearHub",
    "WearLedger",
    "WearService",
    "check_shard_invariants",
    "read_fleet_map",
    "read_ready_file",
    "run_chaos",
    "run_loadgen",
    "run_scenario",
    "run_service",
    "shard_index",
    "tenant_population",
    "write_fleet_map",
]
