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

The wear bookkeeping itself lives in a struct-of-arrays
:class:`~repro.engine.state.WearState`: a bank is a window onto one
``(instance, copy)`` row of a shared engine state, actuated by the
engine kernel plus at most one batched ``fault_hook.on_bank_actuate``
call per access.  ``bank.switches`` yields cached
:class:`~repro.engine.views.SwitchView` objects, so tests keep poking
individual switches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.variation import ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.engine import telemetry
from repro.engine.state import WearState
from repro.errors import ConfigurationError, DeviceWornOutError
from repro.obs.recorder import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.hooks import FaultHook

__all__ = ["SimulatedBank", "SerialCopies", "build_serial_copies"]


class SimulatedBank:
    """A k-out-of-n parallel bank of simulated switches.

    Every access actuates *all* member switches (they are wired in
    parallel, so a traversal stresses each of them); the access succeeds
    when at least ``k`` switches close.

    The bank is the ``(instance, copy)`` row of ``state``: wear, access
    counts and the dead-latch live in (and stay consistent with) the
    shared arrays.  ``fault_hook`` (typically a
    :class:`repro.faults.FaultModel`) is called once per access on the
    kernel's closure row.
    """

    def __init__(self, state: WearState, instance: int = 0, copy: int = 0,
                 fault_hook: "FaultHook | None" = None) -> None:
        self.k = state.k
        self._state = state
        self._instance, self._copy = instance, copy
        self._fault_hook = fault_hook
        self._ids = (np.array([instance]), np.array([copy]))
        self._rows = (state.lifetime[instance, copy],
                      state.used[instance, copy])
        self._switches: list | None = None  # built on first use

    @property
    def switches(self) -> list:
        """Per-switch views, built on first use: the access path never
        touches individual switches."""
        if self._switches is None:
            self._switches = self._state.bank_views(self._instance,
                                                    self._copy)
        return self._switches

    @property
    def n(self) -> int:
        return self._state.n

    @property
    def alive_count(self) -> int:
        return sum(not s.is_failed for s in self.switches)

    @property
    def accesses(self) -> int:
        """Access attempts this bank has seen (counted even when failing)."""
        return int(self._state.bank_accesses[self._instance, self._copy])

    @property
    def is_dead(self) -> bool:
        """True once an access has failed; wear is monotonic so a bank that
        failed to deliver ``k`` paths can never deliver them again."""
        return bool(self._state.bank_dead[self._instance, self._copy])

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
        campaigns exist to measure).  The physical closures are measured
        *at actuation time*: injector wear added afterwards (temperature
        drift) belongs to the next access.
        """
        if self.is_dead:
            return []
        state = self._state
        state.bank_accesses[self._instance, self._copy] += 1
        lifetime, used = self._rows  # cached in-place row views
        alive = used < lifetime
        used += alive  # bool add: one ufunc, no where-dispatch
        closed = used <= lifetime
        closed &= alive
        physical = int(np.count_nonzero(closed))
        if self._fault_hook is not None:
            instances, copies = self._ids
            closed = self._fault_hook.on_bank_actuate(
                state, instances, copies, closed[np.newaxis, :])[0]
        observed = closed.nonzero()[0].tolist()
        if physical < self.k and len(observed) < self.k:
            state.bank_dead[self._instance, self._copy] = True
            if OBS.enabled:
                telemetry.record_bank_death(self.accesses)
        return observed

    def access_succeeds(self) -> bool:
        """Actuate once and report whether >= k paths closed."""
        return len(self.access()) >= self.k


class SerialCopies:
    """``N`` banks used one after another (Fig. 2's "N copies" axis).

    An access is served by the first bank (in order) that still works; a
    bank that fails is abandoned for good.  Trying the next bank costs that
    bank an actuation, exactly as a hardware fall-over would.  Banks may be
    heterogeneous (different sizes or thresholds).
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
                        fault_hook: "FaultHook | None" = None,
                        ) -> SerialCopies:
    """Fabricate a full N x (k-of-n) architecture from a device model.

    The instance is backed by one shared engine
    :class:`~repro.engine.state.WearState` fabricated in the scalar draw
    order (bit-identical lifetimes); ``fault_hook`` (a
    :class:`repro.faults.FaultModel`) is attached to every bank, and
    fabrication draws are unaffected by its presence.
    """
    if n_copies < 1:
        raise ConfigurationError("need at least one copy")
    state = WearState.fabricate(model, 1, n_copies, n_per_bank, k, rng,
                                variation)
    banks = [SimulatedBank(state, 0, copy, fault_hook)
             for copy in range(n_copies)]
    return SerialCopies(banks)
