"""Scalar reference arms for the identity suites.

``src/`` has one implementation of every engine-backed fault and replay
operation: the batched one.  The scalar arms it was derived from live
here, so the differential suites keep checking the reorderings that
batching relies on - per-switch actuate-then-inject and per-share
readout - with no switch in production code:

- :class:`ScalarHookAdapter` drives a per-switch fault model from the
  engine, one ``on_switch_actuate`` call per switch in instance-major,
  switch-index order;
- :class:`PerShareReadout` and :class:`PerShareKeyStore` read a
  recovery's shares one at a time through
  ``FaultModel.on_share_readout``;
- :class:`ReferenceController` is a
  :class:`~repro.connection.resilient.ResilientAccessController` over
  object-mode banks, which consult the fault model right after each
  switch's own actuation, and per-share keystores;
  :func:`reference_fault_trial` is ``run_fault_trial`` on it;
- :func:`replay_events`, :func:`reference_replay_trace` and
  :func:`reference_drain_attack` replay login by login;
- :func:`reference_recover` is ``WearHub.recover`` replaying one WAL
  record per kernel call.
"""

from unittest import mock

import numpy as np

from repro.connection.availability import DrainAnalysis
from repro.connection.keystore import BankKeyStore
from repro.connection.phone import MWayPhone, SecurePhone
from repro.connection.resilient import ResilientAccessController
from repro.core.device import NEMSSwitch
from repro.core.hardware import SimulatedBank
from repro.errors import DeviceWornOutError
from repro.faults import campaign
from repro.service.hub import _validate_params
from repro.sim.traces import EventKind, ReplayReport, _migrate


class ScalarHookAdapter:
    """Drive a scalar :class:`~repro.faults.hooks.FaultHook` from the engine.

    Calls ``hook.on_switch_actuate(view, closed)`` for every switch of
    every actuated bank, instance-major then switch-index order - the
    same order (and hence the same fault-RNG streams) as the object-mode
    hardware loop.
    """

    def __init__(self, hook) -> None:
        self.hook = hook

    def on_bank_actuate(self, state, instances, copies, closed):
        observed = np.zeros_like(closed)
        on_switch = self.hook.on_switch_actuate
        for row in range(closed.shape[0]):
            b, c = int(instances[row]), int(copies[row])
            for i in range(state.n):
                observed[row, i] = bool(
                    on_switch(state.view(b, c, i), bool(closed[row, i])))
        return observed


class PerShareReadout:
    """A fault model whose batched readout site reads share by share."""

    def __init__(self, model) -> None:
        self.model = model

    def on_shares_readout(self, bank_id, indices, datas):
        read = self.model.on_share_readout
        return [read(bank_id, index, data)
                for index, data in zip(indices, datas)]


class PerShareKeyStore(BankKeyStore):
    """A keystore whose fault hook is consulted one share at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.fault_hook is not None:
            self.fault_hook = PerShareReadout(self.fault_hook)


class ReferenceController(ResilientAccessController):
    """The controller over object-mode banks and per-share keystores.

    Fabrication (lifetimes, Shamir splits) runs exactly as in production;
    the fault model is then attached switch by switch, to object-mode
    banks over fresh :class:`~repro.core.device.NEMSSwitch` objects with
    the fabricated lifetimes, and share by share, to every keystore.
    """

    def __init__(self, design, secret, rng, variation=None,
                 fault_hook=None, policy=None, rs_fallback=True) -> None:
        super().__init__(design, secret, rng, variation, policy=policy,
                         rs_fallback=rs_fallback)
        if fault_hook is not None:
            readout = PerShareReadout(fault_hook)
            for store in self._stores + self._rs_stores:
                if store is not None:
                    store.fault_hook = readout
        self._banks = [
            SimulatedBank([NEMSSwitch(v) for v in self._state.lifetime[0, c]],
                          design.k, fault_hook=fault_hook)
            for c in range(design.copies)]


def reference_fault_trial(design, config, rng) -> dict:
    """``run_fault_trial`` driven through :class:`ReferenceController`."""
    with mock.patch.object(campaign, "ResilientAccessController",
                           ReferenceController):
        return campaign.run_fault_trial(design, config, rng)


def bank_arrays(banks) -> dict[str, np.ndarray]:
    """Wear, lifetimes, access counts and dead-latches of ``banks``.

    Reads through ``bank.switches``, so engine-backed and object-mode
    banks compare on equal terms.
    """
    return {
        "used": np.array([[s.cycles_used for s in b.switches]
                          for b in banks]),
        "lifetime": np.array([[s.lifetime_cycles for s in b.switches]
                              for b in banks]),
        "bank_accesses": np.array([b.accesses for b in banks]),
        "bank_dead": np.array([b.is_dead for b in banks]),
    }


def replay_events(designs, passcodes, phone, trace, report,
                  migrate_below_fraction) -> None:
    """Event-by-event replay: one login per trace event."""
    module_budget = designs[0].guaranteed_accesses
    used_on_module = 0
    module_index = 0
    for event in trace:
        # Proactive migration near the advisory budget's edge.
        remaining = module_budget - used_on_module
        if (remaining <= module_budget * migrate_below_fraction
                and module_index < phone.m - 1):
            try:
                _migrate(phone, report)
            except DeviceWornOutError:
                report.died_on_day = event.day
                report.died_during_migration = True
                break
            module_index += 1
            module_budget = designs[module_index].guaranteed_accesses
            used_on_module = 0
        passcode = passcodes[module_index]
        try:
            if event.kind is EventKind.OWNER_LOGIN:
                result = phone.login(passcode)
                report.owner_logins += result.success
            elif event.kind is EventKind.OWNER_TYPO:
                phone.login(passcode + "-typo")
                report.owner_typos += 1
            else:
                result = phone.login("0000-thief")
                report.attacker_attempts += 1
                report.attacker_breached |= result.success
        except DeviceWornOutError:
            report.died_on_day = event.day
            break
        used_on_module += 1
        report.days_served = event.day + 1


def reference_replay_trace(designs, passcodes, storage, trace, rng,
                           migrate_below_fraction=0.05) -> ReplayReport:
    """``replay_trace`` through :func:`replay_events`."""
    phone = MWayPhone(designs, passcodes, storage, rng)
    report = ReplayReport()
    replay_events(designs, passcodes, phone, trace, report,
                  migrate_below_fraction)
    return report


def reference_drain_attack(design, passcode, rng, owner_per_cycle=1,
                           attacker_per_cycle=1) -> DrainAnalysis:
    """``simulate_drain_attack`` login by login.

    Checks the confidentiality invariant on every attempt: each owner
    login succeeds and no junk attempt does.
    """
    phone = SecurePhone(design, passcode, b"owner data", rng)
    owner_served = 0
    attacker_wasted = 0
    try:
        while True:
            for _ in range(owner_per_cycle):
                assert phone.login(passcode).success
                owner_served += 1
            for _ in range(attacker_per_cycle):
                assert not phone.login("not-the-passcode").success
                attacker_wasted += 1
    except DeviceWornOutError:
        pass
    served = owner_served + attacker_wasted
    return DrainAnalysis(
        intended_service_days=served / owner_per_cycle,
        drained_service_days=served / (owner_per_cycle + attacker_per_cycle),
        owner_accesses_served=float(owner_served),
        attacker_accesses_wasted=float(attacker_wasted),
    )


def reference_recover(hub) -> int:
    """``WearHub.recover`` replaying one record per kernel call.

    Restores the snapshot like production, then walks the records after
    it: a provision rebuilds its tenant, an unkeyed access of a hook-free
    tenant is counted for one closed-form fast-forward, and every other
    access is its own one-tenant round, after that tenant's counted
    attempts are fast-forwarded.  Returns the number of records seen.
    """
    snapshot, records = hub.ledger.replay()
    last_seq = -1
    if snapshot is not None:
        last_seq = int(snapshot["meta"]["last_seq"])
        hub._restore_from_snapshot(snapshot, last_seq)
    pending: dict[str, int] = {}
    for record in records:
        if record["seq"] <= last_seq:
            continue
        name = record["tenant"]
        if record["op"] == "provision":
            hub._build_tenant(name, _validate_params(record))
            continue
        tenant = hub.tenants[name]
        rid = record.get("rid")
        if tenant.fault_model is None and rid is None:
            pending[name] = pending.get(name, 0) + 1
            continue
        if pending.get(name):
            hub._fast_forward(tenant, pending.pop(name))
        responses: dict[str, dict] = {}
        hub._execute_round([tenant], responses)
        if rid is not None:
            hub._record_response(name, rid, responses[name])
    for name, attempts in pending.items():
        hub._fast_forward(hub.tenants[name], attempts)
    hub.ledger.open_for_append()
    return len(records)
