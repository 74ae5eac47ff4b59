"""Per-tenant remaining-use forecasts with calibrated confidence bounds.

Given a pooled endurance fit and one tenant's touched state, the
forecaster answers "how many more accesses will this tenant's module
serve?" as a predictive distribution, Monte Carlo style:

1. draw ``(alpha*, beta*)`` from the retained bootstrap resamples
   (parameter uncertainty);
2. for every switch that is still alive at wear ``a``, draw its full
   lifetime from the fitted Weibull *conditioned on exceeding ``a``*
   by inverse transform: ``T = alpha ((a/alpha)^beta - log(1-u))^(1/beta)``
   (device-to-device sampling noise, correctly aged);
3. push the drawn lifetimes through the exact engine accounting -
   ``floor(T) - a`` closes per switch, the k-th largest per bank,
   dead-latched banks and passed copies contributing zero, summed over
   reachable copies - mirroring
   :meth:`repro.engine.state.WearState.remaining_capacity` term for term.

The percentile band of the resulting draws is the forecast interval; its
empirical coverage against ground truth is what ``repro capacity
calibrate`` and the ``capacity.estimate`` bench section gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.capacity.estimator import CapacityEstimate
from repro.engine.state import kth_largest
from repro.errors import ConfigurationError

__all__ = ["TenantForecast", "forecast_remaining", "forecast_tenants"]


@dataclass(frozen=True)
class TenantForecast:
    """Predictive remaining-use distribution for one tenant.

    ``samples`` retains the predictive draws so consumers can evaluate
    tail probabilities at horizons other than the one forecast here
    (``p_exhaust_at``) without re-running the Monte Carlo; the JSON
    payload carries only the summary statistics.
    """

    tenant: str
    remaining_mean: float
    remaining_median: float
    interval: tuple[float, float]
    confidence: float
    p_exhaust: float
    horizon: int
    draws: int
    engine_remaining: int
    exhausted: bool
    samples: tuple[float, ...] = ()

    def p_exhaust_at(self, horizon: int) -> float:
        """Predictive P[remaining <= horizon] from the retained draws."""
        if horizon == self.horizon or not self.samples:
            return self.p_exhaust
        return float(np.mean(np.asarray(self.samples) <= horizon))

    def to_payload(self) -> dict:
        return {
            "tenant": self.tenant,
            "remaining_mean": self.remaining_mean,
            "remaining_median": self.remaining_median,
            "interval": list(self.interval),
            "confidence": self.confidence,
            "p_exhaust": self.p_exhaust,
            "horizon": self.horizon,
            "draws": self.draws,
            "engine_remaining": self.engine_remaining,
            "exhausted": self.exhausted,
        }


def _parameter_draws(estimate: CapacityEstimate, draws: int,
                     rng: np.random.Generator,
                     ) -> tuple[np.ndarray, np.ndarray]:
    alpha_s = np.asarray(estimate.fit.alpha_samples, dtype=float)
    beta_s = np.asarray(estimate.fit.beta_samples, dtype=float)
    if alpha_s.size == 0:
        return (np.full(draws, estimate.alpha),
                np.full(draws, estimate.beta))
    idx = rng.integers(0, alpha_s.size, size=draws)
    return alpha_s[idx], beta_s[idx]


def forecast_remaining(tenant: str, obs: dict, estimate: CapacityEstimate,
                       *, draws: int = 256, confidence: float = 0.9,
                       horizon: int = 0,
                       rng: np.random.Generator | None = None,
                       ) -> TenantForecast:
    """Forecast one tenant's remaining capacity from its observation dict.

    ``obs`` follows the schema documented in
    :mod:`repro.capacity.estimator`.  ``p_exhaust`` is the predictive
    probability that remaining capacity is at most ``horizon`` accesses.
    Deterministic given ``rng``; the observation state is never mutated.
    """
    from repro.sim.rng import make_rng

    if draws < 2:
        raise ConfigurationError("need at least 2 forecast draws")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0, 1)")
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    if rng is None:
        rng = make_rng(0)
    copies, n, k = int(obs["copies"]), int(obs["n"]), int(obs["k"])
    wear = np.asarray(obs["values"], dtype=float).reshape(copies, n)
    failed = np.asarray(obs["events"], dtype=bool).reshape(copies, n)
    bank_dead = np.asarray(obs["bank_dead"], dtype=bool)
    current = int(obs["current"])

    alpha_s, beta_s = _parameter_draws(estimate, draws, rng)
    alpha_s = alpha_s[:, np.newaxis, np.newaxis]
    beta_s = beta_s[:, np.newaxis, np.newaxis]
    u = rng.random(size=(draws, copies, n))
    # Conditional inverse transform: T | T > a for alive switches (a = 0
    # for untouched ones makes this the unconditional draw).
    aged = (wear / alpha_s) ** beta_s
    lifetimes = alpha_s * (aged - np.log1p(-u)) ** (1.0 / beta_s)
    remaining = np.where(failed, 0.0,
                         np.maximum(np.floor(lifetimes) - wear, 0.0))
    # Exact engine accounting: k-th largest per bank, dead banks and
    # passed copies excluded, reachable copies summed.
    reachable = (np.arange(copies)[np.newaxis, :] >= current) & ~bank_dead
    totals = np.where(reachable, kth_largest(remaining, k), 0.0).sum(axis=1)

    # Remaining capacity is integer-valued with heavy point masses near
    # exhaustion; a closed percentile interval over the raw draws would
    # systematically over-cover (extra mass sits exactly on the
    # endpoints).  Dequantize with +-0.5 uniform jitter before taking
    # the band - the standard continuity correction - which is what
    # keeps the empirical coverage of the nominal 90% interval inside
    # the calibration gate.
    tail = (1.0 - confidence) / 2.0
    dequantized = totals + rng.random(size=draws) - 0.5
    lo, hi = np.percentile(dequantized,
                           [100.0 * tail, 100.0 * (1.0 - tail)])
    lo, hi = max(float(lo), 0.0), max(float(hi), 0.0)
    return TenantForecast(
        tenant=tenant,
        remaining_mean=float(totals.mean()),
        remaining_median=float(np.median(totals)),
        interval=(float(lo), float(hi)),
        confidence=confidence,
        p_exhaust=float((totals <= horizon).mean()),
        horizon=horizon,
        draws=draws,
        engine_remaining=int(obs.get("remaining_capacity", -1)),
        exhausted=bool(obs.get("exhausted", current >= copies)),
        samples=tuple(float(v) for v in totals),
    )


def forecast_tenants(tenants: dict, estimate: CapacityEstimate, *,
                     draws: int = 256, confidence: float = 0.9,
                     horizon: int = 0,
                     rng: np.random.Generator | None = None,
                     ) -> dict[str, TenantForecast]:
    """Forecast every tenant, in sorted name order for determinism."""
    from repro.sim.rng import make_rng

    if rng is None:
        rng = make_rng(0)
    return {
        name: forecast_remaining(name, tenants[name], estimate,
                                 draws=draws, confidence=confidence,
                                 horizon=horizon, rng=rng)
        for name in sorted(tenants)
    }
