"""Stateful hardware simulation of the paper's switch arrangements.

Where :mod:`repro.core.structures` computes closed-form reliability,
this module *runs* the hardware: wear accumulates access by access, so
Monte Carlo experiments can measure empirical access bounds and attack
outcomes.

Composition mirrors Figure 2(d):

- :class:`SimulatedBank` - one parallel structure of ``n`` switches with a
  recovery threshold ``k`` (k = 1 models the unencoded parallel bank).
- :class:`SerialCopies` - ``N`` banks consumed in order; when the current
  bank can no longer deliver ``k`` live paths the next one takes over, and
  when the last is exhausted the architecture is permanently dead.

Since the :mod:`repro.engine` refactor the wear bookkeeping itself lives
in a struct-of-arrays :class:`~repro.engine.state.WearState`; the classes
here are thin wrappers that preserve the historical object API.  A bank
comes in two flavours:

- **array mode** (:meth:`SimulatedBank.from_state`, what
  :func:`build_serial_copies` produces): the bank is a window onto one
  ``(instance, copy)`` row of a shared engine state, actuated by the
  engine kernel plus at most one batched
  :class:`~repro.engine.hooks.VectorFaultHook` call per access.
  ``bank.switches`` yields cached :class:`~repro.engine.views.SwitchView`
  objects, so tests keep poking individual switches.
- **object mode** (the plain constructor): the bank adopts caller-owned
  :class:`~repro.core.device.NEMSSwitch` objects, which remain the source
  of truth - required when one physical switch is shared between
  structures.  A fault hook here is consulted switch by switch, right
  after each switch's own actuation.  This is also the scalar reference
  implementation the differential suite and the bench's engine section
  compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.device import NEMSSwitch
from repro.core.variation import ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.engine import telemetry
from repro.engine.hooks import vector_hook_for
from repro.engine.state import WearState
from repro.errors import ConfigurationError, DeviceWornOutError
from repro.obs.recorder import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.hooks import VectorFaultHook
    from repro.faults.hooks import FaultHook
    from repro.faults.injectors import FaultModel

__all__ = ["SimulatedBank", "SerialCopies", "build_serial_copies"]


class SimulatedBank:
    """A k-out-of-n parallel bank of simulated switches.

    Every access actuates *all* member switches (they are wired in
    parallel, so a traversal stresses each of them); the access succeeds
    when at least ``k`` switches close.
    """

    def __init__(self, switches: list[NEMSSwitch], k: int = 1,
                 fault_hook: "FaultHook | None" = None) -> None:
        if not switches:
            raise ConfigurationError("bank needs at least one switch")
        if not 1 <= k <= len(switches):
            raise ConfigurationError(
                f"need 1 <= k <= n, got k={k}, n={len(switches)}")
        self._switches: list[NEMSSwitch] | None = list(switches)
        self.k = k
        self._accesses = 0
        self._dead = False
        self._fault_hook = fault_hook
        self._vector_hook = None
        self._state: WearState | None = None
        self._instance = self._copy = 0
        self._ids: tuple[np.ndarray, np.ndarray] | None = None
        self._rows: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_state(cls, state: WearState, instance: int = 0, copy: int = 0,
                   vector_hook: "VectorFaultHook | None" = None,
                   ) -> "SimulatedBank":
        """An engine-backed bank over one ``(instance, copy)`` state row.

        Wear, access counts and the dead-latch live in (and stay
        consistent with) the shared arrays; ``switches`` holds the
        cached per-switch views.  ``vector_hook`` (typically
        :func:`~repro.engine.hooks.vector_hook_for` of a fault model)
        is called once per access on the kernel's closure row -
        bit-identical to consulting the model switch by switch by the
        hooks-module contract, pinned in ``tests/differential``.
        """
        bank = object.__new__(cls)
        bank._switches = None  # built on first use; see ``switches``
        bank.k = state.k
        bank._accesses = 0
        bank._dead = False
        bank._fault_hook = None
        bank._vector_hook = vector_hook
        bank._state = state
        bank._instance, bank._copy = instance, copy
        bank._ids = (np.array([instance]), np.array([copy]))
        bank._rows = (state.lifetime[instance, copy],
                      state.used[instance, copy])
        return bank

    @property
    def switches(self) -> list[NEMSSwitch]:
        """Per-switch views, built lazily for engine-backed banks.

        The batched access paths never touch individual switches, so
        fabricating the view objects up front would be pure overhead for
        vectorized campaigns.
        """
        if self._switches is None:
            self._switches = self._state.bank_views(self._instance,
                                                    self._copy)
        return self._switches

    @property
    def n(self) -> int:
        if self._state is not None:
            return self._state.n
        return len(self.switches)

    @property
    def alive_count(self) -> int:
        return sum(not s.is_failed for s in self.switches)

    @property
    def accesses(self) -> int:
        """Access attempts this bank has seen (counted even when failing)."""
        if self._state is not None:
            return int(self._state.bank_accesses[self._instance, self._copy])
        return self._accesses

    @property
    def is_dead(self) -> bool:
        """True once an access has failed; wear is monotonic so a bank that
        failed to deliver ``k`` paths can never deliver them again."""
        if self._state is not None:
            return bool(self._state.bank_dead[self._instance, self._copy])
        return self._dead

    def _latch_dead(self) -> None:
        if self._state is not None:
            self._state.bank_dead[self._instance, self._copy] = True
        else:
            self._dead = True
        if OBS.enabled:
            telemetry.record_bank_death(self.accesses)

    def access(self) -> list[int]:
        """Actuate the bank once; return indices of switches that closed.

        The access is counted whether or not it succeeds.  An access on a
        dead bank returns an empty list without further wear (the bank is
        electrically open).

        With a fault hook attached the returned indices are the *observed*
        closures after injection.  The dead-latch then keys on the
        physical closures, not the observed ones: a transient misfire must
        not permanently condemn a healthy bank, and a stuck-closed switch
        keeps a physically-dead bank serving (the ceiling violation fault
        campaigns exist to measure).
        """
        if self.is_dead:
            return []
        if self._state is not None:
            self._state.bank_accesses[self._instance, self._copy] += 1
            if self._vector_hook is not None:
                return self._access_vector()
            closed = self._access_array()
        else:
            self._accesses += 1
            if self._fault_hook is not None:
                return self._access_hooked()
            closed = [i for i, s in enumerate(self.switches)
                      if s.actuate()]
        if len(closed) < self.k:
            self._latch_dead()
        return closed

    def _access_hooked(self) -> list[int]:
        """Object mode with a fault hook: actuate, then inject, per switch."""
        hook = self._fault_hook.on_switch_actuate
        physical = 0
        observed: list[int] = []
        for i, switch in enumerate(self.switches):
            raw = switch.actuate()
            physical += raw
            if hook(switch, raw):
                observed.append(i)
        if physical < self.k and len(observed) < self.k:
            self._latch_dead()
        return observed

    def _access_array(self) -> list[int]:
        """Vectorized actuation of the whole bank row (no hook)."""
        lifetime, used = self._rows  # cached in-place row views
        alive = used < lifetime
        used += alive  # bool add: one ufunc, no where-dispatch
        return np.flatnonzero(alive & (used <= lifetime)).tolist()

    def _access_vector(self) -> list[int]:
        """One kernel round plus one batched hook call (vector hook).

        The object-mode hooked loop interleaves actuation and injection
        per switch, but actuation never consults the hook and every
        shipped injector only touches the switch it is handed, so
        actuate-everything-then-inject-everything observes identical
        state.  The dead-latch keys on physical closures measured *at
        actuation time* - injector wear added afterwards (temperature
        drift) belongs to the next access, same as the scalar path.
        """
        lifetime, used = self._rows  # cached in-place row views
        alive = used < lifetime
        used += alive  # bool add: one ufunc, no where-dispatch
        closed = used <= lifetime
        closed &= alive
        closed = closed[np.newaxis, :]
        physical = int(np.count_nonzero(closed))
        instances, copies = self._ids
        observed = self._vector_hook.on_bank_actuate(
            self._state, instances, copies, closed)
        observed_idx = observed[0].nonzero()[0].tolist()
        if physical < self.k and len(observed_idx) < self.k:
            self._latch_dead()
        return observed_idx

    def access_succeeds(self) -> bool:
        """Actuate once and report whether >= k paths closed."""
        return len(self.access()) >= self.k


class SerialCopies:
    """``N`` banks used one after another (Fig. 2's "N copies" axis).

    An access is served by the first bank (in order) that still works; a
    bank that fails is abandoned for good.  Trying the next bank costs that
    bank an actuation, exactly as a hardware fall-over would.  Banks may be
    heterogeneous (different sizes, thresholds, or modes).
    """

    def __init__(self, banks: list[SimulatedBank]) -> None:
        if not banks:
            raise ConfigurationError("need at least one bank")
        self.banks = list(banks)
        self._current = 0
        self.total_accesses = 0

    @property
    def current_index(self) -> int:
        return self._current

    @property
    def is_exhausted(self) -> bool:
        return self._current >= len(self.banks)

    @property
    def device_count(self) -> int:
        return sum(b.n for b in self.banks)

    def access(self) -> tuple[int, list[int]]:
        """Serve one access.

        Returns ``(bank_index, closed_switch_indices)`` for the bank that
        served it.  Raises :class:`DeviceWornOutError` when every bank is
        exhausted - the architecture has reached its physical usage bound.
        """
        self.total_accesses += 1
        while self._current < len(self.banks):
            bank = self.banks[self._current]
            closed = bank.access()
            if len(closed) >= bank.k:
                return self._current, closed
            if OBS.enabled:
                telemetry.record_copy_exhaustion(bank.accesses,
                                                 self._current + 1)
            self._current += 1
        if OBS.enabled:
            telemetry.record_architecture_exhaustion(len(self.banks),
                                                     self.total_accesses)
        raise DeviceWornOutError(
            f"all {len(self.banks)} banks exhausted after "
            f"{self.total_accesses} total accesses")

    def access_succeeds(self) -> bool:
        """Serve one access, reporting success instead of raising."""
        try:
            self.access()
        except DeviceWornOutError:
            return False
        return True

    def count_successful_accesses(self, max_accesses: int | None = None) -> int:
        """Drive the hardware to destruction; return the accesses served.

        This measures the *empirical access bound* of one fabricated
        instance.  ``max_accesses`` caps the experiment (returns the cap if
        the hardware outlives it).
        """
        served = 0
        while max_accesses is None or served < max_accesses:
            if not self.access_succeeds():
                return served
            served += 1
        return served


def build_serial_copies(model: WeibullDistribution, n_copies: int,
                        n_per_bank: int, k: int,
                        rng: np.random.Generator,
                        variation: ProcessVariation | None = None,
                        fault_hook: "FaultModel | None" = None,
                        ) -> SerialCopies:
    """Fabricate a full N x (k-of-n) architecture from a device model.

    The instance is backed by one shared engine
    :class:`~repro.engine.state.WearState` fabricated in the scalar draw
    order (bit-identical lifetimes); ``fault_hook`` (a
    :class:`repro.faults.FaultModel`) is attached to every bank through
    one :func:`~repro.engine.hooks.vector_hook_for` hook, and
    fabrication draws are unaffected by its presence.
    """
    if n_copies < 1:
        raise ConfigurationError("need at least one copy")
    state = WearState.fabricate(model, 1, n_copies, n_per_bank, k, rng,
                                variation)
    vector_hook = vector_hook_for(fault_hook)
    banks = [SimulatedBank.from_state(state, 0, copy, vector_hook=vector_hook)
             for copy in range(n_copies)]
    return SerialCopies(banks)
