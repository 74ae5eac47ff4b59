"""The typed fault-hook contract shared by the injection sites.

:class:`FaultHook` names, as a runtime-checkable
:class:`~typing.Protocol`, the two methods the stateful layers call on a
fault hook: an engine-backed :class:`~repro.core.hardware.SimulatedBank`
(and a :class:`~repro.engine.state.WearState` stepping many banks) hands
each actuation's closure matrix to ``on_bank_actuate``, and a
:class:`~repro.connection.keystore.BankKeyStore` hands each recovery's
readouts to ``on_shares_readout``.  :class:`repro.faults.FaultModel`
satisfies the protocol; so does any test double with the two methods.

This module is dependency-free on purpose: consumers in ``core`` and
``connection`` import it under ``typing.TYPE_CHECKING`` (importing
``repro.faults`` at runtime would cycle back through the hardware
layer).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["FaultHook"]


@runtime_checkable
class FaultHook(Protocol):
    """The fault-injection contract (both sites).

    ``on_bank_actuate`` is the engine's
    :class:`~repro.engine.hooks.VectorFaultHook` site: it gets the
    physical closure matrix of the banks actuated together and returns
    the observed one.  ``on_shares_readout`` is consulted once per
    recovery with the share bytes read at ``indices`` and returns them
    in the same order, any of them corrupted or ``None`` (timeout).  A
    share the hook leaves unchanged is returned as the same object: the
    keystore reads that as its stored share, with no decoding.  An equal
    copy gets the same answer with more work, since the keystore decodes
    it.
    """

    def on_bank_actuate(self, state, instances, copies, closed,
                        ): ...  # pragma: no cover - protocol

    def on_shares_readout(self, bank_id: int, indices: list[int],
                          datas: list,
                          ) -> list: ...  # pragma: no cover - protocol
