"""The typed fault-hook contract shared by the injection sites.

:class:`FaultHook` names, as a runtime-checkable
:class:`~typing.Protocol`, the two methods the stateful layers call on a
fault hook: an object-mode :class:`~repro.core.hardware.SimulatedBank`
consults ``on_switch_actuate`` switch by switch, and a
:class:`~repro.connection.keystore.BankKeyStore` hands each recovery's
readouts to ``on_shares_readout``.  Engine-backed banks take the
batched form of a :class:`repro.faults.FaultModel` instead
(:func:`repro.engine.hooks.vector_hook_for`).
:class:`repro.faults.FaultModel` satisfies the protocol; so does any
test double with the two methods.

This module is dependency-free on purpose: consumers in ``core`` and
``connection`` import it under ``typing.TYPE_CHECKING`` (importing
``repro.faults`` at runtime would cycle back through the hardware
layer).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["FaultHook", "SwitchLike"]


@runtime_checkable
class SwitchLike(Protocol):
    """What an injector may assume about the switch it is handed.

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


@runtime_checkable
class FaultHook(Protocol):
    """The fault-injection contract (both sites).

    ``on_switch_actuate`` is consulted after each physical switch
    actuation with the raw outcome and returns the observed one;
    ``on_shares_readout`` is consulted once per recovery with the share
    bytes read at ``indices`` and returns them in the same order, any
    of them corrupted or ``None`` (timeout).  A share the hook leaves
    unchanged is returned as the same object: the keystore reads that
    as its stored share, with no decoding.  An equal copy gets the same
    answer with more work, since the keystore decodes it.
    """

    def on_switch_actuate(self, switch: SwitchLike, closed: bool,
                          ) -> bool: ...  # pragma: no cover - protocol

    def on_shares_readout(self, bank_id: int, indices: list[int],
                          datas: list,
                          ) -> list: ...  # pragma: no cover - protocol
