"""Vectorized wear-state engine for the stateful device layer.

One struct-of-arrays state machine (:class:`~repro.engine.state.WearState`)
replaces the per-object wear bookkeeping that used to be duplicated across
``core.hardware``, ``connection.architecture``, ``connection.resilient``
and ``pads.decision_tree``: per-device cycle budgets, dead-latches and
access counters live in NumPy arrays batched across devices *and* across
independently fabricated instances, with one vectorized access kernel and
a closed-form run-to-exhaustion fast path that stays bit-identical to
stepping real switch objects one actuation at a time.

Layer map:

- :mod:`repro.engine.state` - the arrays, the kernels and the closed form;
- :mod:`repro.engine.views` - cached per-switch views duck-typing
  :class:`~repro.core.device.NEMSSwitch` so tests and the per-switch
  fault reference can keep poking individual switches;
- :mod:`repro.engine.hooks` - the vectorized fault-hook protocol, which
  :class:`repro.faults.FaultModel` satisfies (each injector carries its
  own batched site);
- :mod:`repro.engine.telemetry` - the single home of the ``hw.*``
  observability counters that were previously scattered per subsystem.

See ``docs/engine.md`` for the state layout and the bit-identity argument.
"""

from repro.engine.hooks import VectorFaultHook
from repro.engine.state import WearState
from repro.engine.views import SwitchView

__all__ = [
    "SwitchView",
    "VectorFaultHook",
    "WearState",
]
