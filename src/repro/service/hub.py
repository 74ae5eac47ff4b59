"""The multi-tenant wear hub: pooled engine state + durable accounting.

One :class:`WearHub` owns every provisioned tenant of a service
instance.  Tenants with the same architecture shape ``(copies, n, k)``
share one struct-of-arrays :class:`~repro.engine.state.WearState` - one
row per tenant - so a batch of concurrent ``access`` requests is served
by **one** vectorized ``step_access`` kernel call per shape instead of
N object-mode actuations.

Cost is bounded by the work asked for, not by the pool size: a pool's
backing arrays double their capacity when full, so provisioning N
tenants copies O(N) rows in total; a round hands the kernel the row
indices of its tenants, which reads and writes only those rows; and
``provision`` and ``status`` of one tenant query only that tenant's row.

Bit-identity with sequential handling (the differential acceptance
criterion), which holds away from the response-retention boundary
(:meth:`WearHub.serve_round`), falls out of two facts:

- a round contains at most one request per tenant (the batcher enforces
  it), so each tenant's attempt is one kernel visit followed by one
  keystore recovery - the same sub-steps, in the same per-tenant order,
  as a sequential drive;
- every tenant's fault model owns a dedicated RNG
  (``substream(seed, 1)``), and the row-dispatch hook routes each pool
  row to its own tenant's hook, so no draw of tenant A's stream can
  depend on whether tenant B shared the kernel call.

Durability: every state-changing operation is appended (and fsynced) to
the :class:`~repro.service.ledger.WearLedger` *before* the engine
executes it, and :meth:`WearHub.recover` rebuilds the exact state from
the latest self-contained snapshot plus the records after it -
closed-form fast-forward for unkeyed records of hook-free tenants (the
engine's one closed form, from any hook-free state), and stepped
replay for the rest, in
kernel rounds of distinct tenants that are exact by the same two facts.
Recovery therefore costs one ``step_access`` call per pool per replayed
round, not one per record.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from repro.connection.architecture import fabricate_copies
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import (
    CodingError,
    ConfigurationError,
    LedgerCorruptionError,
)
from repro.faults.campaign import FaultCampaignConfig, build_fault_model
from repro.faults.injectors import StuckClosedConversion
from repro.obs.recorder import OBS
from repro.service.ledger import WearLedger
from repro.service.protocol import denied, ok
from repro.sim.rng import make_rng, substream

__all__ = ["WearHub", "TenantRecord"]

#: The per-row arrays of a pool's :class:`WearState`.
_POOL_ARRAYS = ("lifetime", "used", "bank_accesses", "bank_dead", "current",
                "total_accesses")


def _stuck_closed(model) -> StuckClosedConversion | None:
    """The fault model's stuck-closed injector, whose verdicts a snapshot
    carries, if it has one."""
    return next((injector for injector in model.injectors
                 if isinstance(injector, StuckClosedConversion)), None)


class _RowDispatchHook:
    """Route each pool row's actuation to that tenant's own fault hook.

    Rows without a hook pass their physical closures through untouched,
    which is semantically identical to running the kernel hook-free
    (the dead-latch condition collapses to the same expression when
    ``observed == closed``); only rows with a hook are visited.
    """

    def __init__(self) -> None:
        self.row_hooks: dict[int, object] = {}

    def on_bank_actuate(self, state, instances, copies, closed):
        if not self.row_hooks:
            return closed
        rows = instances.tolist()
        hooked = [j for j, row in enumerate(rows) if row in self.row_hooks]
        if not hooked:
            return closed
        observed = closed.copy()
        for j in hooked:
            observed[j] = self.row_hooks[rows[j]].on_bank_actuate(
                state, instances[j:j + 1], copies[j:j + 1],
                closed[j:j + 1])[0]
        return observed


class _Pool:
    """All tenants sharing one architecture shape ``(copies, n, k)``.

    The state's arrays are views of the first ``instances`` rows of
    backing arrays whose capacity doubles when full, so appending a row
    is amortized O(1) rather than a copy of the whole pool.  The views
    are re-pointed after every append;
    :class:`~repro.engine.views.SwitchView` and the hub read through the
    state's attributes, so nothing holds a stale array.
    """

    def __init__(self, copies: int, n: int, k: int) -> None:
        self.copies = copies
        self.n = n
        self.k = k
        self.dispatch = _RowDispatchHook()
        self.state: WearState | None = None
        self._backing: dict[str, np.ndarray] = {}

    def add_row(self, lifetimes: np.ndarray) -> int:
        """Append one pristine instance row; returns its row index."""
        if self.state is None:
            self.state = WearState(lifetimes, self.k,
                                   vector_hook=self.dispatch)
            self._backing = {name: getattr(self.state, name)
                             for name in _POOL_ARRAYS}
            return 0
        row = self.state.instances
        if row == len(self._backing["lifetime"]):
            for name, array in self._backing.items():
                grown = np.zeros((2 * row,) + array.shape[1:],
                                 dtype=array.dtype)
                grown[:row] = array
                self._backing[name] = grown
        self._backing["lifetime"][row] = lifetimes[0]
        for name, array in self._backing.items():
            setattr(self.state, name, array[:row + 1])
        return row


class TenantRecord:
    """One provisioned tenant: its pool row, stores and counters."""

    __slots__ = ("name", "params", "pool", "row", "stores", "fault_model",
                 "attempts", "served")

    def __init__(self, name, params, pool, row, stores, fault_model):
        self.name = name
        self.params = params
        self.pool = pool
        self.row = row
        self.stores = stores
        self.fault_model = fault_model
        self.attempts = 0
        self.served = 0

    @property
    def exhausted(self) -> bool:
        return bool(self.pool.state.current[self.row] >= self.pool.copies)


def _validate_params(request: dict) -> dict:
    """Extract and validate the canonical provision parameters."""
    try:
        params = {
            "alpha": float(request["alpha"]),
            "beta": float(request["beta"]),
            "n": int(request["n"]),
            "k": int(request["k"]),
            "copies": int(request["copies"]),
            "seed": int(request["seed"]),
            "secret": str(request["secret"]),
            "scheme": str(request.get("scheme", "shamir")),
            "faults": request.get("faults"),
            "capacity": request.get("capacity"),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid provision request: {exc}")
    # The cheap checks; WearHub.provision fabricates the tenant before
    # logging the record, which catches whatever these miss.
    if params["alpha"] <= 0 or params["beta"] <= 0:
        raise ConfigurationError("alpha and beta must be positive")
    if not 1 <= params["k"] <= params["n"]:
        raise ConfigurationError(
            f"need 1 <= k <= n, got k={params['k']}, n={params['n']}")
    if params["copies"] < 1:
        raise ConfigurationError("copies must be >= 1")
    if params["scheme"] not in ("shamir", "rs"):
        raise ConfigurationError(f"unknown scheme {params['scheme']!r}")
    try:
        secret = bytes.fromhex(params["secret"])
    except ValueError as exc:
        raise ConfigurationError(f"secret must be hex: {exc}")
    if not secret:
        raise ConfigurationError("secret must be non-empty")
    if params["faults"] is not None:
        if not isinstance(params["faults"], dict):
            raise ConfigurationError("faults must be an object")
        try:
            FaultCampaignConfig(**params["faults"])
        except TypeError as exc:  # unknown field names
            raise ConfigurationError(f"invalid faults: {exc}")
    if params["capacity"] is not None:
        # Per-tenant admission thresholds; validated here so a malformed
        # policy is rejected before the provision enters the WAL (the
        # record - and thus the policy - rides replay and snapshots).
        from repro.capacity.policy import CapacityPolicy

        CapacityPolicy.from_params(params["capacity"])
    return params


class WearHub:
    """The synchronous service core: provision, serve, persist, recover."""

    #: Most-recent ``(tenant, request_id) -> response`` entries retained
    #: for idempotent retry replay.  Bounded FIFO: a retry arriving
    #: after this many *newer* keyed requests is treated as new traffic.
    #: Only responses to logged accesses are retained, so a recovered
    #: hub retains exactly what the live one did; a keyed request to an
    #: already-exhausted tenant is neither logged nor retained.
    RESPONSE_RETENTION = 4096

    def __init__(self, ledger: WearLedger,
                 response_retention: int | None = None) -> None:
        self.ledger = ledger
        self.tenants: dict[str, TenantRecord] = {}
        self.pools: dict[tuple[int, int, int], _Pool] = {}
        self.rounds = 0
        self.idempotent_replays = 0
        self.response_retention = (self.RESPONSE_RETENTION
                                   if response_retention is None
                                   else response_retention)
        self._responses: OrderedDict[tuple[str, str], dict] = OrderedDict()

    # ------------------------------------------------------------------
    # Provisioning
    def provision(self, request: dict) -> dict:
        """Provision one tenant; returns the protocol response."""
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            return denied("bad-request", "tenant must be a non-empty string")
        if name in self.tenants:
            return denied("exists", f"tenant {name!r} is already provisioned",
                          tenant=name)
        try:
            params = _validate_params(request)
            # Fabricate before logging: a provision that cannot build
            # must never enter the WAL, or replay would fail on it
            # forever.
            hardware = self._fabricate(params)
        except (ConfigurationError, ValueError) as exc:
            return denied("bad-request", str(exc))
        record = {"op": "provision", "tenant": name}
        record.update(params)
        self.ledger.append(record)
        tenant = self._register(name, params, *hardware)
        if OBS.enabled:
            OBS.metrics.inc("svc.provisions")
        capacity = int(tenant.pool.state.remaining_capacity(tenant.row))
        return ok(tenant=name, capacity=capacity, copies=params["copies"],
                  n=params["n"], k=params["k"])

    def _build_tenant(self, name: str, params: dict) -> TenantRecord:
        """Fabricate and register a tenant (replay and snapshot restore)."""
        return self._register(name, params, *self._fabricate(params))

    @staticmethod
    def _fabricate(params: dict) -> tuple:
        """A tenant's lifetimes, keystores and fault model; no hub state.

        Lifetimes and stores come from
        :func:`~repro.connection.architecture.fabricate_copies`, the one
        fabrication draw order, so a tenant rebuilt from its provision
        record recovers byte-identical secrets; the fault RNG is a
        separate positional substream so fabricating with and without
        faults yields the same lifetimes.  The tenant's fresh
        ``make_rng(seed)`` holds no buffered 32-bit half, so its draws
        come out in that order as one block of generator words, except
        for GF(2^16) banks and splits that do not fill whole 64-bit
        words, which keep the per-copy calls.  A device model whose
        lifetimes the engine cannot count raises
        :class:`~repro.errors.ConfigurationError`.  No shares are built
        here: a store builds them on its first readout, which a
        hook-free store never needs.
        """
        device = WeibullDistribution(alpha=params["alpha"],
                                     beta=params["beta"])
        secret = bytes.fromhex(params["secret"])
        rng = make_rng(params["seed"])
        fault_model = None
        if params["faults"] is not None:
            fault_model = build_fault_model(
                FaultCampaignConfig(**params["faults"]),
                substream(params["seed"], 1))
        lifetimes, stores = fabricate_copies(
            device, params["copies"], params["n"], params["k"], secret, rng,
            scheme=params["scheme"], fault_hook=fault_model)
        return lifetimes, stores, fault_model

    def _register(self, name: str, params: dict, lifetimes: np.ndarray,
                  stores: list, fault_model) -> TenantRecord:
        """Give a fabricated tenant its pool row, row hook and name."""
        key = (params["copies"], params["n"], params["k"])
        pool = self.pools.get(key)
        if pool is None:
            pool = self.pools[key] = _Pool(*key)
        row = pool.add_row(lifetimes)
        if fault_model is not None:
            pool.dispatch.row_hooks[row] = fault_model
        tenant = TenantRecord(name, params, pool, row, stores, fault_model)
        self.tenants[name] = tenant
        return tenant

    # ------------------------------------------------------------------
    # The access path
    def recorded_response(self, name: str, rid: str) -> dict | None:
        """The retained response for ``(tenant, request_id)``, if any."""
        return self._responses.get((name, rid))

    def _record_response(self, name: str, rid: str, response: dict) -> None:
        self._responses[(name, rid)] = response
        while len(self._responses) > self.response_retention:
            self._responses.popitem(last=False)

    def serve_round(self, requests: list) -> dict[str, dict]:
        """Serve one coalesced round: at most one access per tenant.

        Each item is a tenant name, a ``(tenant, request_id)`` pair, or
        a ``(tenant, request_id, trace_id)`` triple.  A round that names
        a tenant twice raises :class:`~repro.errors.ConfigurationError`
        before any counter moves.  A request whose ``request_id``
        already has a retained response is answered from the response
        table - no WAL record, no wear (the retry arrived after its
        original attempt committed).  A request to an already-exhausted
        tenant is denied with no WAL record and is not retained: its
        ``attempts`` and ``served`` no longer change, so a retry is
        answered with an equal response, recomputed.  At the server such
        a retry therefore meets the draining, busy, rate-limit and
        capacity gates like new traffic, as it does at a recovered
        shard.  One pass over the items answers those and builds every
        other tenant's access record (idempotency key and trace id
        included); the records are appended to the WAL in one durable
        write *before* the engine runs, then :meth:`_execute_round`
        finishes the responses.  Returns ``{tenant: response}``.

        The answers equal handling the items one round each, except at
        the retention boundary: every retry is looked up before the
        round retains its own responses, so a retry whose entry an
        earlier item of the same round pushes out of the FIFO is
        answered from retention here, but would be charged again as
        new traffic if that item had been served first on its own.

        Trace ids are client-supplied correlation tokens: persisting
        them in the WAL is what lets one merged timeline follow a
        request client -> shard -> batch round -> kernel even across a
        crash-restart.  They carry no wall clock (WAL bytes must stay a
        pure function of the request history), and replay ignores them.
        """
        responses: dict[str, dict] = {}
        live: list[TenantRecord] = []
        records: list[dict] = []
        seen: set[str] = set()
        replays = 0
        for item in requests:
            if isinstance(item, tuple):
                name, rid = item[0], item[1]
                trace = item[2] if len(item) > 2 else None
            else:
                name, rid, trace = item, None, None
            if name in seen:
                raise ConfigurationError(
                    f"round contains tenant {name!r} twice")
            seen.add(name)
            tenant = self.tenants.get(name)
            if tenant is None:
                responses[name] = denied(
                    "unknown-tenant", f"tenant {name!r} is not provisioned",
                    tenant=name)
                continue
            if rid is not None:
                recorded = self._responses.get((name, rid))
                if recorded is not None:
                    replays += 1
                    responses[name] = recorded
                    continue
            if tenant.exhausted:
                responses[name] = self._exhausted_response(tenant)
                continue
            record = {"op": "access", "tenant": name}
            if rid is not None:
                record["rid"] = rid
            if trace is not None:
                record["trace"] = trace
            live.append(tenant)
            records.append(record)
        if replays:
            self.idempotent_replays += replays
            if OBS.enabled:
                OBS.metrics.inc("svc.idempotent_replays", replays)
        if live:
            wal_started = time.perf_counter() if OBS.enabled else 0.0
            seqs = self.ledger.append_batch(records)
            if OBS.enabled:
                OBS.metrics.observe("svc.wal_append_s",
                                    time.perf_counter() - wal_started)
                # The round event is the seq <-> wall-clock join point
                # for merged timelines: WAL records carry seqs but no
                # timestamps, this event carries both.
                OBS.event("svc.round",
                          first_seq=seqs[0], last_seq=seqs[-1],
                          tenants=[t.name for t in live],
                          traces=sorted(record["trace"] for record in records
                                        if "trace" in record))
            kernel_s = self._execute_round(live, responses)
            for record in records:
                rid = record.get("rid")
                if rid is not None:
                    name = record["tenant"]
                    self._record_response(name, rid, responses[name])
            if OBS.enabled:
                OBS.metrics.observe("svc.kernel_s", kernel_s)
                wear = [tenant.pool.n for tenant in live
                        if responses[tenant.name]["status"] == "ok"]
                if wear:
                    OBS.metrics.inc("svc.accesses_served", len(wear))
                    OBS.metrics.inc("svc.wear_consumed", sum(wear))
        self.rounds += 1
        if OBS.enabled:
            OBS.metrics.inc("svc.rounds")
            OBS.metrics.observe("svc.batch_size", len(live))
            OBS.metrics.set_gauge("svc.last_batch_size", len(live))
        return responses

    def _execute_round(self, live: list[TenantRecord],
                       responses: dict[str, dict]) -> float:
        """Run one kernel call per pool and build per-tenant responses.

        ``live`` names each tenant at most once.  Each pool's results
        leave NumPy once: ``success`` and ``served_copy`` as lists, and
        every row's closed switch indices from one ``nonzero`` call over
        the observed closures, whose row-major output is each row's run
        in turn, cut at the cumulative per-row counts.  Returns the
        kernel seconds, which only :meth:`serve_round` reports.
        """
        by_pool: dict[_Pool, list[TenantRecord]] = {}
        for tenant in live:
            by_pool.setdefault(tenant.pool, []).append(tenant)
        results: dict[str, tuple[bool, int, list[int]]] = {}
        kernel_started = time.perf_counter()
        for pool, tenants in by_pool.items():
            rows = np.array([tenant.row for tenant in tenants],
                            dtype=np.int64)
            success, served_copy, observed = pool.state.step_access(rows)
            closed = observed.nonzero()[1].tolist()
            ends = np.count_nonzero(observed, axis=1).cumsum().tolist()
            start = 0
            for tenant, served, copy, end in zip(
                    tenants, success.tolist(), served_copy.tolist(), ends):
                results[tenant.name] = (served, copy, closed[start:end])
                start = end
        kernel_s = time.perf_counter() - kernel_started
        for tenant in live:
            served, copy, closed = results[tenant.name]
            tenant.attempts += 1
            if not served:
                responses[tenant.name] = self._exhausted_response(tenant)
                continue
            try:
                secret = tenant.stores[copy].recover(closed)
            except CodingError as exc:
                responses[tenant.name] = denied(
                    "fault", str(exc), tenant=tenant.name,
                    error=type(exc).__name__, attempts=tenant.attempts,
                    served=tenant.served)
                continue
            tenant.served += 1
            responses[tenant.name] = ok(
                tenant=tenant.name, secret=secret.hex(), copy=copy,
                attempts=tenant.attempts, served=tenant.served)
        return kernel_s

    @staticmethod
    def _exhausted_response(tenant: TenantRecord) -> dict:
        return denied(
            "exhausted",
            f"tenant {tenant.name!r} exhausted after {tenant.attempts} "
            f"attempts ({tenant.served} served)",
            tenant=tenant.name, attempts=tenant.attempts,
            served=tenant.served)

    # ------------------------------------------------------------------
    # Introspection
    def status(self, name: str | None = None) -> dict:
        """Protocol response describing one tenant (or all of them)."""
        if name is not None:
            tenant = self.tenants.get(name)
            if tenant is None:
                return denied("unknown-tenant",
                              f"tenant {name!r} is not provisioned",
                              tenant=name)
            remaining = tenant.pool.state.remaining_capacity(tenant.row)
            return ok(tenant=name,
                      **self._tenant_status(tenant, int(remaining)))
        # One capacity query per pool, as in wear_gauges, not one
        # whole-pool query per tenant.
        remaining = {pool: pool.state.remaining_capacity()
                     for pool in self.pools.values()
                     if pool.state is not None}
        return ok(rounds=self.rounds,
                  tenants={t.name: self._tenant_status(
                      t, int(remaining[t.pool][t.row]))
                           for t in self.tenants.values()})

    def _tenant_status(self, tenant: TenantRecord, remaining: int) -> dict:
        state = tenant.pool.state
        status = {
            "attempts": tenant.attempts,
            "served": tenant.served,
            "exhausted": tenant.exhausted,
            "current_copy": int(state.current[tenant.row]),
            "dead_banks": int(state.bank_dead[tenant.row].sum()),
            "remaining": remaining,
            "wear_cycles": int(state.used[tenant.row].sum()),
        }
        if tenant.fault_model is not None:
            status["injections"] = tenant.fault_model.injection_counts()
        return status

    def wear_gauges(self) -> dict[str, dict]:
        """Per-tenant wear gauges from the touched-state queries.

        Everything here derives from :class:`~repro.engine.state`
        queries on live arrays - ``remaining_capacity`` /
        ``remaining_bank_budgets`` / ``switch_budgets`` - so the values
        a fleet dashboard shows are *exactly* what the engine would
        grant, not a shadow accounting.  The pool-level queries run once
        per pool, not once per tenant, so a many-tenant shard answers
        its ``metrics`` op in O(pool) kernel work.
        """
        per_pool: dict[tuple[int, int, int], tuple] = {}
        for key, pool in self.pools.items():
            if pool.state is None:
                continue
            per_pool[key] = (pool.state.remaining_capacity(),
                             pool.state.remaining_bank_budgets(),
                             pool.state.switch_budgets())
        gauges: dict[str, dict] = {}
        for tenant in self.tenants.values():
            key = (tenant.pool.copies, tenant.pool.n, tenant.pool.k)
            remaining, bank_budgets, switch_budgets = per_pool[key]
            row = tenant.row
            state = tenant.pool.state
            total_budget = int(switch_budgets[row].sum())
            used = int(state.used[row].sum())
            gauges[tenant.name] = {
                "remaining_capacity": int(remaining[row]),
                "remaining_bank_budgets": [int(b) for b
                                           in bank_budgets[row]],
                "wear_cycles": used,
                "lifetime_used_fraction": (used / total_budget
                                           if total_budget else 1.0),
                "attempts": tenant.attempts,
                "served": tenant.served,
                "exhausted": tenant.exhausted,
                "current_copy": int(state.current[row]),
                "dead_banks": int(state.bank_dead[row].sum()),
            }
        return gauges

    def wear_observations(self) -> dict[str, dict]:
        """Per-tenant censored wear observations for endurance fits.

        The observation-dict schema :mod:`repro.capacity.estimator`
        documents: full per-switch ``values``/``events`` rows (list
        index = switch identity), reachability state for forecasting,
        the architecture geometry, and - because the service knows what
        it provisioned - the ground-truth ``(alpha, beta)`` calibration
        checks compare against.  Like :meth:`wear_gauges`, the
        pool-level engine queries run once per pool; everything is a
        pure read of live arrays.
        """
        per_pool: dict[tuple[int, int, int], tuple] = {}
        for key, pool in self.pools.items():
            if pool.state is None:
                continue
            values, events, _ = pool.state.wear_observations()
            per_pool[key] = (values, events,
                             pool.state.remaining_capacity())
        observations: dict[str, dict] = {}
        for tenant in self.tenants.values():
            key = (tenant.pool.copies, tenant.pool.n, tenant.pool.k)
            values, events, remaining = per_pool[key]
            row = tenant.row
            state = tenant.pool.state
            observations[tenant.name] = {
                "values": [float(v) for v in values[row].ravel()],
                "events": [bool(e) for e in events[row].ravel()],
                "bank_dead": [bool(d) for d in state.bank_dead[row]],
                "current": int(state.current[row]),
                "copies": tenant.pool.copies,
                "n": tenant.pool.n,
                "k": tenant.pool.k,
                "remaining_capacity": int(remaining[row]),
                "exhausted": tenant.exhausted,
                "alpha": tenant.params["alpha"],
                "beta": tenant.params["beta"],
            }
        return observations

    # ------------------------------------------------------------------
    # Durability
    def write_snapshot(self) -> None:
        """Persist a **self-contained** snapshot.

        Beyond the replay-checkable engine arrays, every entry carries
        the tenant's provision parameters (fabrication is deterministic
        from them), and fault tenants add their possibly-mutated
        lifetimes (:class:`~repro.faults.PrematureStuckOpen` shortens
        them irreversibly), the fault generators' bit states, each
        injector's injection count and the stuck-closed verdicts.  Recovery therefore never needs the
        records the snapshot covers - which is what licenses
        :meth:`~repro.service.ledger.WearLedger.rotate_segment` to seal
        them away.  The retained idempotency responses ride along so a
        retry spanning the crash still replays its original answer.
        """
        entries = []
        for tenant in self.tenants.values():
            state = tenant.pool.state
            row = tenant.row
            entry = {
                "tenant": tenant.name,
                "params": tenant.params,
                "attempts": tenant.attempts,
                "served": tenant.served,
                "used": state.used[row].tolist(),
                "bank_accesses": state.bank_accesses[row].tolist(),
                "bank_dead": state.bank_dead[row].tolist(),
                "current": int(state.current[row]),
                "total_accesses": int(state.total_accesses[row]),
            }
            if tenant.fault_model is not None:
                entry["lifetime"] = state.lifetime[row].tolist()
                entry["fault"] = self._export_fault_state(tenant)
            entries.append(entry)
        # The checkpoint layer requires ``results`` to be a list, so the
        # tenant entries ride there and the retained idempotency
        # responses ride in the snapshot meta.
        self.ledger.write_snapshot(
            self.ledger.next_seq - 1, entries,
            responses=[[name, rid, response] for (name, rid), response
                       in self._responses.items()])

    def _export_fault_state(self, tenant: TenantRecord) -> dict:
        """Everything needed to resume the tenant's fault pipeline."""
        model = tenant.fault_model
        payload = {"rng_state": model.rng.bit_generator.state,
                   "injectors": [{"injections": injector.injections}
                                 for injector in model.injectors],
                   # Per-injector substream states: the streams were
                   # jumped from the root at model construction and have
                   # advanced independently since, so the root state
                   # alone cannot reproduce them mid-life.
                   "stream_states": [stream.bit_generator.state
                                     for stream in model.streams]}
        stuck = _stuck_closed(model)
        if stuck is not None:
            payload["converted"] = sorted(
                [c, i, sticky]
                for (b, c, i), sticky in stuck.converted.items())
        return payload

    def _restore_fault_state(self, tenant: TenantRecord,
                             payload: dict) -> None:
        model = tenant.fault_model
        model.rng.bit_generator.state = payload["rng_state"]
        for stream, exported in zip(model.streams,
                                    payload["stream_states"]):
            stream.bit_generator.state = exported
        for injector, exported in zip(model.injectors,
                                      payload["injectors"]):
            injector.injections = int(exported["injections"])
        stuck = _stuck_closed(model)
        if stuck is not None:
            stuck.converted = {
                (tenant.row, int(c), int(i)): bool(sticky)
                for c, i, sticky in payload["converted"]}

    def recover(self) -> int:
        """Rebuild the hub from the durable ledger; returns records seen.

        The snapshot, when there is one, reconstructs every tenant as of
        its ``last_seq`` - parameters refabricate the hardware, arrays,
        lifetimes and fault state restore on top - and only the records
        *after* it replay.  Records the snapshot covers are skipped,
        which is what makes sealed-away segments safe.  Without a
        snapshot every record replays onto an empty hub.

        Unkeyed access records of hook-free tenants coalesce into one
        closed-form fast-forward per tenant.  The rest replay stepped,
        regenerating each keyed record's response, in kernel rounds: a
        maximal run of stepped records naming distinct tenants, closed
        when a record names a tenant already in it.  A round is exact
        for the reason a live round is (module docstring), and each
        tenant's own records still apply in WAL order.
        """
        snapshot, records = self.ledger.replay()
        last_seq = -1
        if snapshot is not None:
            last_seq = int(snapshot["meta"]["last_seq"])
            self._restore_from_snapshot(snapshot, last_seq)
        group: dict[str, tuple[TenantRecord, str | None]] = {}
        pending: dict[str, int] = {}
        rounds = 0
        for record in records:
            if record["seq"] <= last_seq:
                continue
            tenant = self._replay_record(record, pending)
            if tenant is None:
                continue
            if tenant.name in group:
                rounds += self._replay_group(group)
            if pending.get(tenant.name):
                # Coalesced attempts precede this record: apply them
                # before the tenant's step, which has not run yet.
                self._fast_forward(tenant, pending.pop(tenant.name))
            group[tenant.name] = (tenant, record.get("rid"))
        rounds += self._replay_group(group)
        for name, attempts in pending.items():
            self._fast_forward(self.tenants[name], attempts)
        self.ledger.open_for_append()
        if OBS.enabled:
            OBS.event("svc.recovered", records=len(records),
                      tenants=len(self.tenants), snapshot_seq=last_seq,
                      replay_rounds=rounds)
        return len(records)

    def _restore_from_snapshot(self, snapshot: dict, last_seq: int) -> None:
        """Rebuild every tenant from its self-contained snapshot entry.

        An entry that does not rebuild, or lacks a field the writer
        always writes, is corruption reported with the tenant's name.
        """
        for entry in snapshot["results"]:
            try:
                self._restore_tenant(entry)
            except (ConfigurationError, KeyError, ValueError) as exc:
                raise LedgerCorruptionError(
                    f"snapshot tenant {entry.get('tenant')!r} does not "
                    f"restore: {exc}", path=self.ledger.snapshot_path,
                    seq=last_seq) from exc
        for name, rid, response in snapshot["meta"].get("responses", []):
            self._responses[(name, rid)] = response

    def _replay_record(self, record: dict,
                       pending: dict[str, int]) -> TenantRecord | None:
        """Apply one WAL record; returns the tenant it must step, if any.

        Provisions rebuild their tenant and unkeyed accesses of hook-free
        tenants are counted into ``pending``; the caller steps the rest.
        """
        op = record.get("op")
        if op == "provision":
            name = record.get("tenant")
            try:
                if not isinstance(name, str) or not name \
                        or name in self.tenants:
                    raise ConfigurationError(f"tenant {name!r} is not new")
                self._build_tenant(name, _validate_params(record))
            except (ConfigurationError, ValueError) as exc:
                raise LedgerCorruptionError(
                    f"provision record {record['seq']} does not replay: "
                    f"{exc}", path=self.ledger.wal_path,
                    seq=record["seq"]) from exc
            return None
        if op != "access":
            raise LedgerCorruptionError(
                f"WAL record {record['seq']} has unknown op {op!r}",
                path=self.ledger.wal_path, seq=record.get("seq"))
        name = record.get("tenant")
        tenant = self.tenants.get(name)
        if tenant is None:
            raise LedgerCorruptionError(
                f"access record {record['seq']} names unknown tenant "
                f"{name!r}", path=self.ledger.wal_path, seq=record["seq"])
        if tenant.fault_model is None and record.get("rid") is None:
            # Hook-free replay consumes no RNG and regenerates no
            # response, so the closed form applied once is exact.
            pending[name] = pending.get(name, 0) + 1
            return None
        return tenant

    def _replay_group(self, group: dict) -> int:
        """Step a group of distinct tenants as one round, then empty it.

        Retained responses are recorded in the group's (record) order,
        so the idempotency FIFO keeps WAL order.  Returns the number of
        kernel rounds issued: 0 for an empty group.
        """
        if not group:
            return 0
        responses: dict[str, dict] = {}
        self._execute_round([tenant for tenant, _ in group.values()],
                            responses)
        for name, (_, rid) in group.items():
            if rid is not None:
                self._record_response(name, rid, responses[name])
        group.clear()
        return 1

    def _fast_forward(self, tenant: TenantRecord, attempts: int) -> None:
        """Apply ``attempts`` accesses to a hook-free tenant, closed form.

        Runs on a detached single-row state so per-tenant attempt counts
        can differ, then writes the arrays back into the pool row.  The
        engine's one closed form resumes a pristine row and a row
        restored from a snapshot alike.
        """
        pool, row = tenant.pool, tenant.row
        state = pool.state
        temp = WearState(state.lifetime[row:row + 1].copy(), pool.k)
        temp.used[:] = state.used[row:row + 1]
        temp.bank_accesses[:] = state.bank_accesses[row:row + 1]
        temp.bank_dead[:] = state.bank_dead[row:row + 1]
        temp.current[:] = state.current[row:row + 1]
        temp.total_accesses[:] = state.total_accesses[row:row + 1]
        served = int(temp.run_to_exhaustion(attempts)[0])
        state.used[row] = temp.used[0]
        state.bank_accesses[row] = temp.bank_accesses[0]
        state.bank_dead[row] = temp.bank_dead[0]
        state.current[row] = temp.current[0]
        state.total_accesses[row] = temp.total_accesses[0]
        tenant.attempts += attempts
        tenant.served += served

    def _restore_tenant(self, entry: dict) -> None:
        """Refabricate one tenant, then overwrite its state from ``entry``."""
        tenant = self._build_tenant(entry["tenant"],
                                    _validate_params(entry["params"]))
        state = tenant.pool.state
        row = tenant.row
        state.used[row] = np.asarray(entry["used"], dtype=np.int64)
        state.bank_accesses[row] = np.asarray(entry["bank_accesses"],
                                              dtype=np.int64)
        state.bank_dead[row] = np.asarray(entry["bank_dead"], dtype=bool)
        state.current[row] = int(entry["current"])
        state.total_accesses[row] = int(entry["total_accesses"])
        tenant.attempts = int(entry["attempts"])
        tenant.served = int(entry["served"])
        if tenant.fault_model is not None:
            state.lifetime[row] = np.asarray(entry["lifetime"], dtype=float)
            self._restore_fault_state(tenant, entry["fault"])
        elif entry.get("fault") is not None:
            raise ConfigurationError(
                "carries fault state but provisions without faults")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WearHub(tenants={len(self.tenants)}, "
                f"pools={len(self.pools)}, rounds={self.rounds})")
