"""Availability analysis: the denial-of-service cost of wearout security.

Section 7's honest caveat: an attacker with the device can always *burn*
the legitimate usage budget with junk passcode attempts.  Wearout
guarantees confidentiality and integrity, never availability.  This
module quantifies that trade-off so a deployment can reason about it:

- :func:`drain_analysis` - closed-form service-life loss under a given
  adversarial drain rate;
- :func:`simulate_drain_attack` - the same measured on a fabricated
  phone, interleaving owner logins with attacker junk attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.connection.phone import SecurePhone
from repro.core.degradation import DesignPoint
from repro.errors import ConfigurationError

__all__ = ["DrainAnalysis", "drain_analysis", "simulate_drain_attack"]


@dataclass(frozen=True)
class DrainAnalysis:
    """Service-life impact of an adversarial budget drain."""

    intended_service_days: float
    drained_service_days: float
    owner_accesses_served: float
    attacker_accesses_wasted: float

    @property
    def service_loss_fraction(self) -> float:
        """Fraction of intended service life destroyed by the drain."""
        return 1.0 - self.drained_service_days / self.intended_service_days


def drain_analysis(design: DesignPoint, owner_rate_per_day: float = 50.0,
                   drain_rate_per_day: float = 0.0) -> DrainAnalysis:
    """Closed-form availability impact of a sustained drain.

    The budget is consumed at ``owner + drain`` accesses/day, so the
    device dies earlier by the ratio of rates.  Confidentiality is
    unaffected (burned accesses yield the attacker nothing), which is the
    paper's point - this quantifies what *is* lost.
    """
    if owner_rate_per_day <= 0:
        raise ConfigurationError("owner_rate_per_day must be > 0")
    if drain_rate_per_day < 0:
        raise ConfigurationError("drain_rate_per_day must be >= 0")
    budget = design.guaranteed_accesses
    intended_days = budget / owner_rate_per_day
    total_rate = owner_rate_per_day + drain_rate_per_day
    drained_days = budget / total_rate
    owner_share = owner_rate_per_day / total_rate
    return DrainAnalysis(
        intended_service_days=intended_days,
        drained_service_days=drained_days,
        owner_accesses_served=budget * owner_share,
        attacker_accesses_wasted=budget * (1.0 - owner_share),
    )


def simulate_drain_attack(design: DesignPoint, passcode: str,
                          rng: np.random.Generator,
                          owner_per_cycle: int = 1,
                          attacker_per_cycle: int = 1) -> DrainAnalysis:
    """Measured drain on a fabricated phone.

    Interleaves ``owner_per_cycle`` legitimate logins with
    ``attacker_per_cycle`` junk attempts until the hardware dies, then
    reports the measured split.

    The whole drain runs as one engine fast-forward: a login consumes
    exactly one access, draws no randomness, and its outcome is fixed by
    the passcode, so the split is the served count partitioned by the
    cycle pattern.  Individual attempts are therefore never made, and
    the confidentiality invariant (no junk attempt succeeds) is not
    checked here; the login-by-login reference in ``tests/differential``
    checks it on every attempt and pins this function to its split.
    """
    if owner_per_cycle < 1 or attacker_per_cycle < 0:
        raise ConfigurationError(
            "need owner_per_cycle >= 1 and attacker_per_cycle >= 0")
    phone = SecurePhone(design, passcode, b"owner data", rng)
    served = phone.connection.serve_accesses(2 ** 62)
    cycle = owner_per_cycle + attacker_per_cycle
    full_cycles, rem = divmod(served, cycle)
    owner_served = full_cycles * owner_per_cycle + min(rem, owner_per_cycle)
    attacker_wasted = served - owner_served
    return DrainAnalysis(
        intended_service_days=served / owner_per_cycle,
        drained_service_days=served / cycle,
        owner_accesses_served=float(owner_served),
        attacker_accesses_wasted=float(attacker_wasted),
    )
