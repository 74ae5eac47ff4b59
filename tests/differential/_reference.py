"""Scalar reference arms for the identity suites.

``src/`` has one implementation of every engine-backed fault and replay
operation: the batched one.  The scalar arms it was derived from live
here, so the differential suites keep checking the reorderings that
batching relies on - per-switch actuate-then-inject and per-share
readout - with no switch in production code:

- :data:`SWITCH_FORMS` and :data:`SHARE_FORMS` hold the per-switch and
  per-share form of every shipped injector; a test injector written one
  share at a time subclasses :class:`PerShareInjector`;
- :class:`PerSwitchModel` consults a fault model switch by switch, for
  :class:`ObjectBank` (the object-mode bank) and, from the engine,
  :class:`ScalarHookAdapter`;
- :class:`PerShareReadout` and :class:`PerShareKeyStore` read a
  recovery's shares one at a time;
- :class:`ReferenceController` is a
  :class:`~repro.connection.resilient.ResilientAccessController` over
  object-mode banks and per-share keystores;
  :func:`reference_fault_trial` is ``run_fault_trial`` on it;
- :func:`replay_events`, :func:`reference_replay_trace` and
  :func:`reference_drain_attack` replay login by login;
- :func:`reference_recover` is ``WearHub.recover`` replaying one WAL
  record per kernel call.
"""

from typing import Protocol, runtime_checkable
from unittest import mock

import numpy as np

from repro.connection.availability import DrainAnalysis
from repro.connection.keystore import BankKeyStore
from repro.connection.phone import MWayPhone, SecurePhone
from repro.connection.resilient import ResilientAccessController
from repro.core.device import NEMSSwitch
from repro.errors import DeviceWornOutError
from repro.faults import campaign
from repro.faults.injectors import (
    FaultInjector,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)
from repro.service.hub import _validate_params
from repro.sim.traces import EventKind, ReplayReport, _migrate


@runtime_checkable
class SwitchLike(Protocol):
    """What a per-switch form may assume about the switch it is handed.

    Satisfied by both :class:`~repro.core.device.NEMSSwitch` and the
    engine's :class:`~repro.engine.views.SwitchView`.
    """

    switch_id: int

    @property
    def lifetime_cycles(self) -> float: ...  # pragma: no cover - protocol

    @property
    def cycles_used(self) -> int: ...  # pragma: no cover - protocol

    @property
    def is_failed(self) -> bool: ...  # pragma: no cover - protocol

    def actuate(self) -> bool: ...  # pragma: no cover - protocol

    def force_fail(self) -> None: ...  # pragma: no cover - protocol

    def add_wear(self, cycles: int) -> None: ...  # pragma: no cover


# ----------------------------------------------------------------------
# Per-switch forms: ``form(injector, switch, closed, rng) -> closed``.

def misfire_on_switch(self, switch, closed, rng):
    if closed and self.rate and rng.random() < self.rate:
        self.injections += 1
        return False
    return closed


def premature_on_switch(self, switch, closed, rng):
    if not switch.is_failed and self.rate and rng.random() < self.rate:
        switch.force_fail()
        self.injections += 1
        return False
    return closed


def stuck_closed_on_switch(self, switch, closed, rng):
    # Verdicts go in the injector's own map, keyed by switch id where
    # the batched site keys them by coordinates: an injector runs on one
    # arm only.
    if closed or not switch.is_failed:
        return closed
    sticky = self.converted.get(switch.switch_id)
    if sticky is None:
        sticky = bool(self.probability) and rng.random() < self.probability
        self.converted[switch.switch_id] = sticky
        if sticky:
            self.injections += 1
    return True if sticky else closed


def drift_on_switch(self, switch, closed, rng):
    if self._extra_wear <= 0.0 or switch.is_failed:
        return closed
    whole = int(self._extra_wear)
    frac = self._extra_wear - whole
    extra = whole + (1 if frac and rng.random() < frac else 0)
    if extra:
        switch.add_wear(extra)
        self.injections += extra
    return closed


# ----------------------------------------------------------------------
# Per-share forms: ``form(injector, bank_id, index, data, rng) -> data``.

def corruption_on_share(self, bank_id, index, data, rng):
    if not data or not self.rate or rng.random() >= self.rate:
        return data
    self.injections += 1
    corrupted = bytearray(data)
    for _ in range(self.flips):
        pos = int(rng.integers(0, len(corrupted)))
        corrupted[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(corrupted)


def timeout_on_share(self, bank_id, index, data, rng):
    if self.rate and rng.random() < self.rate:
        self.injections += 1
        return None
    return data


#: The per-switch form of every shipped actuation injector.
SWITCH_FORMS = {
    TransientMisfire: misfire_on_switch,
    PrematureStuckOpen: premature_on_switch,
    StuckClosedConversion: stuck_closed_on_switch,
    TemperatureDrift: drift_on_switch,
}

#: The per-share form of every shipped readout injector.
SHARE_FORMS = {
    ShareCorruption: corruption_on_share,
    ReadoutTimeout: timeout_on_share,
}


class PerShareInjector(FaultInjector):
    """A test injector written one share at a time.

    Subclasses override :meth:`on_share_readout`, which is also their
    per-share reference form.  The batched site replays it share by
    share in index order, skipping shares an earlier stage timed out.
    """

    def on_share_readout(self, bank_id, index, data, rng):
        return data

    def on_shares_readout(self, bank_id, indices, datas, rng):
        return [None if data is None
                else self.on_share_readout(bank_id, index, data, rng)
                for index, data in zip(indices, datas)]


def _stages(model, site, forms):
    """``(form, injector, stream)`` for every injector with a ``site``;
    one without a reference form is refused, not skipped."""
    stages = []
    for injector, stream in zip(model.injectors, model.streams):
        if not hasattr(injector, site):
            continue
        if isinstance(injector, PerShareInjector):
            form = type(injector).on_share_readout
        else:
            form = forms.get(type(injector))
        if form is None:
            raise TypeError(f"{type(injector).__name__} has no reference "
                            f"form for {site}")
        stages.append((form, injector, stream))
    return stages


class PerSwitchModel:
    """A fault model consulted switch by switch.

    Each actuation injector's per-switch form runs in pipeline order on
    the injector's own model substream - the cell-major order the
    batched sites are checked against.
    """

    def __init__(self, model) -> None:
        self.stages = _stages(model, "on_bank_actuate", SWITCH_FORMS)

    def on_switch_actuate(self, switch, closed):
        for form, injector, stream in self.stages:
            closed = form(injector, switch, closed, stream)
        return closed


class ObjectBank:
    """The object-mode bank: k-of-n over caller-owned switch objects.

    Every access actuates all switches; a fault hook (anything with
    ``on_switch_actuate(switch, closed)``) is consulted right after each
    switch's own actuation.  Semantics are those of
    :class:`~repro.core.hardware.SimulatedBank`.
    """

    def __init__(self, switches, k=1, fault_hook=None) -> None:
        self.switches = list(switches)
        self.k = k
        self.accesses = 0
        self.is_dead = False
        self._fault_hook = fault_hook

    def access(self) -> list[int]:
        if self.is_dead:
            return []
        self.accesses += 1
        if self._fault_hook is not None:
            return self._access_hooked()
        closed = [i for i, s in enumerate(self.switches) if s.actuate()]
        if len(closed) < self.k:
            self.is_dead = True
        return closed

    def _access_hooked(self) -> list[int]:
        """Actuate, then inject, per switch."""
        hook = self._fault_hook.on_switch_actuate
        physical = 0
        observed: list[int] = []
        for i, switch in enumerate(self.switches):
            raw = switch.actuate()
            physical += raw
            if hook(switch, raw):
                observed.append(i)
        if physical < self.k and len(observed) < self.k:
            self.is_dead = True
        return observed


class ScalarHookAdapter:
    """Drive a fault model switch by switch from the engine.

    Calls the :class:`PerSwitchModel` of ``model`` on the view of every
    switch of every actuated bank, instance-major then switch-index
    order - the same order (and hence the same fault-RNG streams) as the
    object-mode hardware loop.
    """

    def __init__(self, model) -> None:
        self.hook = PerSwitchModel(model)

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
    """A fault model whose batched readout site reads share by share.

    Each readout injector's per-share form runs in pipeline order on its
    own model substream; a share timed out by one stage skips the rest.
    """

    def __init__(self, model) -> None:
        self.stages = _stages(model, "on_shares_readout", SHARE_FORMS)

    def on_shares_readout(self, bank_id, indices, datas):
        out = []
        for index, data in zip(indices, datas):
            for form, injector, stream in self.stages:
                data = form(injector, bank_id, index, data, stream)
                if data is None:
                    break
            out.append(data)
        return out


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
        switch_hook = None
        if fault_hook is not None:
            readout = PerShareReadout(fault_hook)
            for store in self._stores + self._rs_stores:
                if store is not None:
                    store.fault_hook = readout
            switch_hook = PerSwitchModel(fault_hook)
        self._banks = [
            ObjectBank([NEMSSwitch(v) for v in self._state.lifetime[0, c]],
                       design.k, fault_hook=switch_hook)
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
