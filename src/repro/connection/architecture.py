"""The limited-use connection: wearout-bounded access to a secret key.

Hardware realization of Figure 2d: ``N`` serially-consumed copies, each a
k-of-n parallel bank of NEMS switches with a Shamir share of the storage
key behind every switch.  Every key read actuates the active bank; once
all banks are exhausted the key is physically unrecoverable.

The switch state lives in one shared engine
:class:`~repro.engine.state.WearState` and the fall-over loop is the
common :class:`~repro.core.hardware.SerialCopies` driver - this class
only adds the share binding and the key-recovery step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.connection.keystore import BankKeyStore
from repro.core.degradation import DesignPoint
from repro.core.hardware import SerialCopies, SimulatedBank
from repro.core.variation import NoVariation, ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import DeviceWornOutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.hooks import FaultHook

__all__ = ["LimitedUseConnection", "fabricate_copies"]


def fabricate_copies(device: WeibullDistribution, copies: int, n: int, k: int,
                     secret: bytes, rng: np.random.Generator, *,
                     variation: ProcessVariation | None = None,
                     scheme: str = "shamir",
                     fault_hook: "FaultHook | None" = None,
                     ) -> tuple[np.ndarray, list[BankKeyStore]]:
    """Fabricate ``copies`` banks of ``n`` switches with their keystores.

    The one fabrication draw order: per copy, that copy's switch
    lifetimes, then its store, which draws its split coefficient rows.
    Every caller that builds a connection from ``rng`` goes through
    here, so the same generator state always gives the same lifetimes
    and shares.  Returns the ``(1, copies, n)`` lifetime array for one
    :class:`~repro.engine.state.WearState` row and the stores, store
    ``c`` tagged ``bank_id=c``.
    """
    variation = variation or NoVariation()
    lifetimes = np.empty((1, copies, n))
    stores = []
    for copy in range(copies):
        lifetimes[0, copy] = variation.sample_lifetimes(device, n, rng)
        stores.append(BankKeyStore(secret, n, k, rng, scheme=scheme,
                                   bank_id=copy, fault_hook=fault_hook))
    return lifetimes, stores


class LimitedUseConnection:
    """A fabricated limited-use connection guarding one secret.

    Parameters
    ----------
    design:
        The sized architecture (bank size, threshold, copy count, device
        model) from the degradation solver.
    secret:
        The byte string to protect (e.g. a 16-byte storage key).
    rng:
        Generator used both for fabrication (lifetime sampling) and for
        the per-bank Shamir splits.
    variation:
        Optional per-device process variation applied at fabrication.
    """

    def __init__(self, design: DesignPoint, secret: bytes,
                 rng: np.random.Generator,
                 variation: ProcessVariation | None = None) -> None:
        self.design = design
        lifetimes, self._stores = fabricate_copies(
            design.device, design.copies, design.n, design.k, secret, rng,
            variation=variation)
        self._state = WearState(lifetimes, design.k)
        self._serial = SerialCopies([
            SimulatedBank(self._state, 0, copy)
            for copy in range(design.copies)])
        self.accesses = 0

    # ------------------------------------------------------------------
    @property
    def current_copy(self) -> int:
        return self._serial.current_index

    @property
    def is_exhausted(self) -> bool:
        return self._serial.is_exhausted

    @property
    def device_count(self) -> int:
        return self.design.total_devices

    def read_key(self) -> bytes:
        """One physical access to the protected secret.

        Actuates the active bank; recovers the secret from the shares
        behind the switches that closed.  Falls over to the next copy when
        the active bank dies, and raises :class:`DeviceWornOutError` once
        every copy is exhausted - the phone is then permanently locked.
        """
        self.accesses += 1
        try:
            copy, closed = self._serial.access()
        except DeviceWornOutError:
            raise DeviceWornOutError(
                f"limited-use connection exhausted after {self.accesses} "
                f"accesses (bound {self.design.access_bound})") from None
        return self._stores[copy].recover(closed)

    def serve_accesses(self, count: int) -> int:
        """Serve up to ``count`` key reads in one engine fast-forward.

        Returns the number actually served; fewer than ``count`` means
        the connection exhausted partway and the next read's failing
        attempt has already been counted, exactly as a raising
        :meth:`read_key` would have.  The secret is not recovered -
        callers that need the key bytes use :meth:`read_key`; this is
        the bulk path for replay-style drivers that only need the wear
        accounting.  Leaves the shared wear state bit-identical to
        ``count`` sequential reads (closed form pinned in
        ``tests/engine``; the replay arms in ``tests/differential``).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return 0
        served = int(self._state.run_to_exhaustion(max_accesses=count)[0])
        died = served < count
        self._serial._current = int(self._state.current[0])
        self._serial.total_accesses += served + died
        self.accesses += served + died
        return served
