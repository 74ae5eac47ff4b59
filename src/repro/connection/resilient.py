"""Resilient access layer: retry, quarantine, and RS degradation.

:class:`~repro.connection.architecture.LimitedUseConnection` assumes the
fail-secure fault model of the paper: a key read either succeeds or the
bank is dead.  Under the realistic faults of :mod:`repro.faults`
(transient misfires, readout timeouts, bit-flipped shares, stiction)
that is no longer true - a read can fail *transiently*, or worse,
Shamir recovery can silently return a wrong secret from a corrupted
share.  :class:`ResilientAccessController` hardens the access path:

- **bounded retry with backoff** - a failed read is retried up to
  ``RetryPolicy.max_attempts`` times; each retry honestly actuates (and
  wears) hardware, and the simulated exponential backoff is accumulated
  in the stats instead of sleeping;
- **health tracking and quarantine** - each copy tracks consecutive
  suspect failures (corruption, timeouts, decode failures).  A copy
  exceeding ``quarantine_after`` is quarantined: it is skipped even
  though it may be physically alive, trading residual budget for trust;
- **integrity-checked recovery with graceful degradation** - every
  recovered secret is verified against a SHA-256 digest stored at
  provisioning (a key-check value, standard practice in HSMs).  On a
  digest mismatch the controller falls back from Shamir to the bank's
  Reed-Solomon encoding, which corrects corrupted shares whenever
  ``2 * errors <= n - k - missing``; beyond that radius it raises a
  context-rich :class:`~repro.errors.DecodingFailure` rather than ever
  returning a wrong secret.

The RS fallback stores a second, erasure-coded share behind each switch.
RS sharing is *not* hiding against partial capture, so enabling it
(``rs_fallback=True``, the default) trades some of Shamir's
information-theoretic secrecy for availability under corruption; pass
``rs_fallback=False`` to keep the pure-Shamir story.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.connection.architecture import fabricate_copies
from repro.connection.keystore import BankKeyStore
from repro.core.degradation import DesignPoint
from repro.core.hardware import SimulatedBank
from repro.core.variation import ProcessVariation
from repro.engine.state import WearState
from repro.errors import (
    CodingError,
    ConfigurationError,
    DecodingFailure,
    DeviceWornOutError,
    InsufficientSharesError,
)
from repro.obs.recorder import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injectors import FaultModel

__all__ = ["RetryPolicy", "CopyHealth", "AccessStats",
           "ResilientAccessController"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry and quarantine knobs for the access controller."""

    #: Total read attempts per ``read_key`` call (first try included).
    max_attempts: int = 4
    #: Simulated backoff before retry i is ``backoff_base_s * factor**i``.
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    #: Consecutive suspect failures before a copy is quarantined.
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "need backoff_base_s >= 0 and backoff_factor >= 1")
        if self.quarantine_after < 1:
            raise ConfigurationError("quarantine_after must be >= 1")

    def backoff_s(self, retry_index: int) -> float:
        """Simulated wait before the ``retry_index``-th retry (0-based)."""
        return self.backoff_base_s * self.backoff_factor ** retry_index


@dataclass
class CopyHealth:
    """Per-copy health ledger driving the quarantine decision."""

    bank_id: int
    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    degraded_recoveries: int = 0
    quarantined: bool = False
    dead: bool = False

    @property
    def available(self) -> bool:
        return not (self.dead or self.quarantined)

    def note_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0

    def note_failure(self, quarantine_after: int) -> bool:
        """Record one suspect failure; returns True if this quarantines."""
        self.failures += 1
        self.consecutive_failures += 1
        if (not self.quarantined
                and self.consecutive_failures >= quarantine_after):
            self.quarantined = True
            return True
        return False


@dataclass
class AccessStats:
    """Aggregate outcome counters for one controller instance."""

    calls: int = 0
    successes: int = 0
    attempts: int = 0
    retries: int = 0
    degraded_recoveries: int = 0
    corruption_detected: int = 0
    quarantines: int = 0
    fallovers: int = 0
    backoff_total_s: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of ``read_key`` calls that returned the secret."""
        return self.successes / self.calls if self.calls else 1.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "successes": self.successes,
            "attempts": self.attempts,
            "retries": self.retries,
            "degraded_recoveries": self.degraded_recoveries,
            "corruption_detected": self.corruption_detected,
            "quarantines": self.quarantines,
            "fallovers": self.fallovers,
            "backoff_total_s": self.backoff_total_s,
            "availability": self.availability,
        }


class ResilientAccessController:
    """A hardened limited-use connection: retries, quarantine, RS fallback.

    Drop-in alternative to
    :class:`~repro.connection.architecture.LimitedUseConnection` with the
    same fabrication inputs plus a fault hook and a retry policy.  The
    cryptographic guarantee is strengthened from "recovers the secret
    when k switches close" to "never returns a *wrong* secret, and
    recovers the right one through RS error correction whenever the
    corruption is within ``2 * errors <= n - k - missing``".
    """

    def __init__(self, design: DesignPoint, secret: bytes,
                 rng: np.random.Generator,
                 variation: ProcessVariation | None = None,
                 fault_hook: "FaultModel | None" = None,
                 policy: RetryPolicy | None = None,
                 rs_fallback: bool = True) -> None:
        self.design = design
        self.policy = policy or RetryPolicy()
        self.stats = AccessStats()
        self._digest = hashlib.sha256(secret).digest()
        rs_possible = rs_fallback and design.k > 1 and design.n <= 255
        self.rs_fallback = rs_possible
        # The fault model reaches the banks as one batched actuation per
        # access and the keystores as one batched readout per recovery -
        # bit-identical to consulting it switch by switch and share by
        # share (the repro.faults.injectors contract, pinned in
        # tests/differential).  One shared engine state backs every
        # copy.  RS stores draw nothing from ``rng``, so building them
        # after the fabrication loop leaves the stream as it was.
        lifetimes, self._stores = fabricate_copies(
            design.device, design.copies, design.n, design.k, secret, rng,
            variation=variation, fault_hook=fault_hook)
        self._rs_stores: list[BankKeyStore | None] = [
            BankKeyStore(secret, design.n, design.k, rng, scheme="rs",
                         bank_id=copy, fault_hook=fault_hook)
            if rs_possible else None
            for copy in range(design.copies)]
        self._health = [CopyHealth(bank_id=copy)
                        for copy in range(design.copies)]
        self._state = WearState(lifetimes, design.k)
        self._banks = [
            SimulatedBank(self._state, 0, copy, fault_hook)
            for copy in range(design.copies)]
        self.accesses = 0
        # First candidate for ``current_copy``.  Dead and quarantined
        # flags are latched (never cleared), so availability is monotone
        # and the scan can resume where it last stopped instead of
        # walking every health record on each access.
        self._first_copy = 0

    # ------------------------------------------------------------------
    @property
    def health(self) -> list[CopyHealth]:
        return self._health

    @property
    def current_copy(self) -> int | None:
        """Index of the first copy still in service (None if none)."""
        health = self._health
        i = self._first_copy
        ncopies = len(health)
        while i < ncopies and not health[i].available:
            i += 1
        self._first_copy = i
        return health[i].bank_id if i < ncopies else None

    @property
    def is_exhausted(self) -> bool:
        return self.current_copy is None

    @property
    def quarantined_copies(self) -> list[int]:
        return [h.bank_id for h in self._health if h.quarantined]

    # ------------------------------------------------------------------
    def _verify(self, candidate: bytes) -> bool:
        return hashlib.sha256(candidate).digest() == self._digest

    def _recover_with_degradation(self, copy: int,
                                  closed: list[int]) -> bytes:
        """Primary recovery, integrity check, RS fallback.

        Raises :class:`DecodingFailure` (context-rich) when the secret
        cannot be recovered *correctly* - never returns a wrong secret.
        """
        primary = self._stores[copy]
        candidate = primary.recover(closed)
        if self._verify(candidate):
            return candidate
        # Corruption detected: the shares decoded but the secret is wrong.
        self.stats.corruption_detected += 1
        if OBS.enabled:
            OBS.metrics.inc("resilient.corruption_detected")
        rs_store = self._rs_stores[copy]
        if rs_store is not None:
            recovered = rs_store.recover(closed)  # error-correcting decode
            if self._verify(recovered):
                self.stats.degraded_recoveries += 1
                self._health[copy].degraded_recoveries += 1
                if OBS.enabled:
                    OBS.metrics.inc("resilient.degraded_recoveries")
                    OBS.event("resilient.shamir_to_rs", bank_id=copy,
                              live_shares=len(closed))
                return recovered
        detail = ("the RS fallback could not correct it"
                  if rs_store is not None
                  else "no RS fallback is provisioned")
        raise DecodingFailure(
            f"bank {copy}: recovered secret failed its integrity check "
            f"and {detail} ({len(closed)} live shares, k={primary.k}, "
            f"n={primary.n})",
            bank_id=copy, n=primary.n, k=primary.k)

    def read_key(self) -> bytes:
        """One access to the protected secret, with retries.

        Raises :class:`DeviceWornOutError` once every copy is dead or
        quarantined, and a :class:`CodingError` subclass when the retry
        budget is exhausted on transient/corruption failures.
        """
        self.accesses += 1
        self.stats.calls += 1
        if OBS.enabled:
            OBS.metrics.inc("resilient.calls")
        last_error: CodingError | None = None
        attempts_left = self.policy.max_attempts
        while attempts_left > 0:
            copy = self.current_copy
            if copy is None:
                break
            attempts_left -= 1
            self.stats.attempts += 1
            bank = self._banks[copy]
            health = self._health[copy]
            closed = bank.access()
            if bank.is_dead and len(closed) < bank.k:
                # Physical wearout: fall over to the next copy.  The
                # fall-over itself does not consume the retry budget
                # beyond the attempt just spent.
                health.dead = True
                self.stats.fallovers += 1
                if OBS.enabled:
                    OBS.metrics.inc("resilient.fallovers")
                    OBS.metrics.set_gauge("resilient.dead_copies",
                                          sum(h.dead for h in self._health))
                continue
            try:
                secret = self._recover_with_degradation(copy, closed)
            except (InsufficientSharesError, DecodingFailure) as exc:
                last_error = exc
                if health.note_failure(self.policy.quarantine_after):
                    self.stats.quarantines += 1
                    if OBS.enabled:
                        OBS.metrics.inc("resilient.quarantines")
                        OBS.event("resilient.quarantined", bank_id=copy,
                                  consecutive_failures=
                                  health.consecutive_failures)
                if attempts_left > 0:
                    retry_index = self.policy.max_attempts - 1 - attempts_left
                    backoff = self.policy.backoff_s(retry_index)
                    self.stats.backoff_total_s += backoff
                    self.stats.retries += 1
                    if OBS.enabled:
                        OBS.metrics.inc("resilient.retries")
                        OBS.metrics.observe("resilient.backoff_s", backoff)
                continue
            health.note_success()
            self.stats.successes += 1
            if OBS.enabled:
                OBS.metrics.inc("resilient.successes")
            return secret
        if self.is_exhausted:
            raise DeviceWornOutError(
                f"resilient connection exhausted after {self.accesses} "
                f"accesses: {sum(h.dead for h in self._health)} copies "
                f"worn out, {len(self.quarantined_copies)} quarantined "
                f"(bound {self.design.access_bound})")
        assert last_error is not None
        raise last_error
