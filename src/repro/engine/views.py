"""Per-switch views into a :class:`~repro.engine.state.WearState`.

A :class:`SwitchView` duck-types :class:`~repro.core.device.NEMSSwitch`
over one ``(instance, copy, index)`` cell of the engine arrays, so code
written against individual switch objects - the per-switch fault
reference, tests that pre-wear a switch, campaign reports - keeps
working unchanged against the batched state.  Views are handed out by
:meth:`~repro.engine.state.WearState.view`, which caches them: the same
coordinate always yields the same object, preserving the identity
semantics (``a is b``) and the stable ``switch_id`` keys that per-switch
code relies on.

``switch_id`` values are drawn from the same process-global counter as
real :class:`~repro.core.device.NEMSSwitch` instances, so ids never
collide between objects and views within one process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.device import _switch_ids
from repro.errors import ConfigurationError, DeviceWornOutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.state import WearState

__all__ = ["SwitchView"]


class SwitchView:
    """A live window onto one switch of a batched wear state."""

    __slots__ = ("_state", "_index", "switch_id")

    def __init__(self, state: "WearState", instance: int, copy: int,
                 index: int) -> None:
        self._state = state
        self._index = (instance, copy, index)
        self.switch_id = next(_switch_ids)

    # ------------------------------------------------------------------
    @property
    def lifetime_cycles(self) -> float:
        return float(self._state.lifetime[self._index])

    @lifetime_cycles.setter
    def lifetime_cycles(self, value: float) -> None:
        if not value >= 0:
            raise ConfigurationError(
                f"lifetime_cycles must be >= 0, got {value!r}")
        self._state.lifetime[self._index] = float(value)

    @property
    def cycles_used(self) -> int:
        return int(self._state.used[self._index])

    @cycles_used.setter
    def cycles_used(self, value: int) -> None:
        self._state.used[self._index] = int(value)

    @property
    def is_failed(self) -> bool:
        state, index = self._state, self._index
        return bool(state.used[index] >= state.lifetime[index])

    @property
    def remaining_cycles(self) -> int:
        state, index = self._state, self._index
        return max(0, int(state.lifetime[index]) - int(state.used[index]))

    # ------------------------------------------------------------------
    def actuate(self) -> bool:
        """One switching cycle; semantics identical to
        :meth:`repro.core.device.NEMSSwitch.actuate`."""
        state, index = self._state, self._index
        used = state.used[index]
        lifetime = state.lifetime[index]
        if used >= lifetime:
            return False
        used += 1
        state.used[index] = used
        return bool(used <= lifetime)

    def force_fail(self) -> None:
        """Kill the switch permanently (fault injection)."""
        state, index = self._state, self._index
        state.lifetime[index] = min(float(state.lifetime[index]),
                                    float(state.used[index]))

    def add_wear(self, cycles: int) -> None:
        """Add wear without serving an access (fault injection)."""
        if cycles < 0:
            raise ConfigurationError("extra wear must be >= 0")
        self._state.used[self._index] += int(cycles)

    def actuate_or_raise(self) -> None:
        """Like :meth:`actuate` but raises :class:`DeviceWornOutError`."""
        if not self.actuate():
            raise DeviceWornOutError(
                f"NEMS switch #{self.switch_id} worn out after "
                f"{int(self.lifetime_cycles)} cycles")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.is_failed else "ok"
        return (f"SwitchView(id={self.switch_id}, at={self._index}, "
                f"used={self.cycles_used}/{self.lifetime_cycles:.0f}, "
                f"{state})")
