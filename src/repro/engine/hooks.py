"""The engine's fault-hook site.

The batched engine actuates a whole bank row per instance in one kernel,
so its hook site is bank-granular: :class:`VectorFaultHook` receives the
physical closure matrix of every bank actuated this step and returns the
*observed* one.  :class:`repro.faults.FaultModel` is the hook the engine
and the keystores call; each of its injectors carries its own batched
site (see :mod:`repro.faults.injectors` and
``docs/fault_vectorization.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.state import WearState

__all__ = ["VectorFaultHook"]


@runtime_checkable
class VectorFaultHook(Protocol):
    """Batched fault-injection site consulted after each bank actuation."""

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        """Observe/modify one batched bank actuation.

        ``closed`` is the ``(m, n)`` physical closure matrix of the
        banks at ``(instances[j], copies[j])``; the return value is the
        observed closure matrix of the same shape.  Implementations may
        mutate switch state through ``state`` (e.g. extra wear) but must
        not serve or count accesses themselves.
        """
        ...  # pragma: no cover - protocol
