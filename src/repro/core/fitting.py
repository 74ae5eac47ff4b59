"""Estimating Weibull parameters from observed lifetimes.

The paper assumes (alpha, beta) are "estimated by fitting the lifetime data
of a large population of similar devices" (Section 2.2).  This module
provides the two standard estimators used in the reliability literature:

- :func:`fit_mle` - maximum-likelihood, solved with scipy root finding.
- :func:`fit_median_rank` - median-rank (Benard) regression on the
  linearized CDF, the classic probability-plot technique.
- :func:`fit_censored_mle` - maximum-likelihood over right-censored
  samples (devices still alive at their last observed wear), the
  estimator live capacity planning needs: most switches in a serving
  fleet have not failed yet, but their survival is still evidence.
- :func:`fit_bootstrap` - nonparametric bootstrap confidence intervals
  around either point estimator (pass ``events`` for paired censored
  resampling).

All return :class:`~repro.core.weibull.WeibullDistribution` (the
bootstrap wraps one in a :class:`BootstrapFit` with the intervals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.weibull import WeibullDistribution
from repro.errors import AllCensoredError, ConfigurationError

__all__ = [
    "BootstrapFit",
    "fit_bootstrap",
    "fit_censored_mle",
    "fit_median_rank",
    "fit_mle",
]


def _validate_lifetimes(lifetimes) -> np.ndarray:
    data = np.asarray(lifetimes, dtype=float).ravel()
    if data.size < 2:
        raise ConfigurationError("need at least 2 lifetimes to fit a Weibull")
    if np.any(~np.isfinite(data)) or np.any(data <= 0):
        raise ConfigurationError("lifetimes must be finite and > 0")
    return data


def fit_mle(lifetimes) -> WeibullDistribution:
    """Maximum-likelihood Weibull fit.

    The MLE for the shape ``beta`` solves the one-dimensional profile
    equation

        sum(x^b log x) / sum(x^b) - 1/b = mean(log x)

    after which the scale follows in closed form:
    ``alpha = (mean(x^b)) ** (1/b)``.
    """
    from scipy import optimize

    data = _validate_lifetimes(lifetimes)
    if np.allclose(data, data[0]):
        # Degenerate sample: every device failed at the same time.  The MLE
        # shape diverges; report a very sharp distribution instead of
        # failing, since this is the correct limit.
        return WeibullDistribution(alpha=float(data[0]), beta=1e3)

    logs = np.log(data)
    mean_log = logs.mean()

    def profile(b: float) -> float:
        xb = np.exp(b * (logs - logs.max()))  # stabilized x**b
        return float((xb * logs).sum() / xb.sum() - 1.0 / b - mean_log)

    # profile() is increasing in b; bracket the root geometrically.
    lo, hi = 1e-3, 1.0
    while profile(hi) < 0 and hi < 1e6:
        lo, hi = hi, hi * 4.0
    beta = float(optimize.brentq(profile, lo, hi, xtol=1e-12, rtol=1e-12))
    alpha = float(np.exp(logs.max())
                  * np.mean(np.exp(beta * (logs - logs.max()))) ** (1.0 / beta))
    return WeibullDistribution(alpha=alpha, beta=beta)


def _validate_censored(values, events) -> tuple[np.ndarray, np.ndarray]:
    data = np.asarray(values, dtype=float).ravel()
    observed = np.asarray(events, dtype=bool).ravel()
    if data.size != observed.size:
        raise ConfigurationError(
            f"values and events must have the same length, got "
            f"{data.size} values and {observed.size} events")
    if data.size < 2:
        raise ConfigurationError(
            "need at least 2 observations to fit a censored Weibull")
    if np.any(~np.isfinite(data)) or np.any(data <= 0):
        raise ConfigurationError("observations must be finite and > 0")
    return data, observed


def fit_censored_mle(values, events) -> WeibullDistribution:
    """Maximum-likelihood Weibull fit over right-censored observations.

    ``values[i]`` is the wear of device ``i``; ``events[i]`` is True if
    it failed at that wear (an exact lifetime) and False if it was still
    alive when observed (a right-censored lifetime: all we know is that
    its lifetime exceeds ``values[i]``).  With ``d`` failures the profile
    equation for the shape becomes

        sum_all(x^b log x) / sum_all(x^b) - 1/b = mean_events(log x)

    (sums over *all* observations, the mean over events only), after
    which ``alpha = (sum_all(x^b) / d) ** (1/b)``.  With every event
    observed this reduces exactly to :func:`fit_mle`.  All-censored
    input has no MLE (the likelihood is unbounded in ``alpha``) and
    raises :class:`~repro.errors.AllCensoredError`.
    """
    from scipy import optimize

    data, observed = _validate_censored(values, events)
    d = int(observed.sum())
    if d == 0:
        raise AllCensoredError(
            f"all {data.size} observations are right-censored; the "
            f"Weibull likelihood has no maximum without at least one "
            f"observed failure", observations=data.size)

    logs = np.log(data)
    event_mean_log = logs[observed].mean()
    peak = logs.max()

    def profile(b: float) -> float:
        xb = np.exp(b * (logs - peak))  # stabilized x**b
        return float((xb * logs).sum() / xb.sum() - 1.0 / b
                     - event_mean_log)

    # profile() is increasing in b; bracket the root geometrically.  No
    # root exists only in the degenerate limit where every failure sits
    # at the sample maximum (censored survivors below it add no spread),
    # where the MLE shape diverges - report the sharp-fit limit.
    lo, hi = 1e-3, 1.0
    while profile(hi) < 0 and hi < 1e6:
        lo, hi = hi, hi * 4.0
    if profile(hi) < 0:
        return WeibullDistribution(alpha=float(data[observed].max()),
                                   beta=1e3)
    beta = float(optimize.brentq(profile, lo, hi, xtol=1e-12, rtol=1e-12))
    alpha = float(np.exp(peak)
                  * (np.exp(beta * (logs - peak)).sum() / d) ** (1.0 / beta))
    return WeibullDistribution(alpha=alpha, beta=beta)


def fit_median_rank(lifetimes) -> WeibullDistribution:
    """Median-rank regression (probability-plot) Weibull fit.

    Sort the lifetimes, assign Benard median ranks
    ``F_i = (i - 0.3) / (n + 0.4)``, and least-squares fit the linearized
    relation ``log(-log(1 - F)) = beta * log(x) - beta * log(alpha)``.
    """
    data = np.sort(_validate_lifetimes(lifetimes))
    n = data.size
    ranks = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    y = np.log(-np.log1p(-ranks))
    x = np.log(data)
    if np.allclose(x, x[0]):
        return WeibullDistribution(alpha=float(data[0]), beta=1e3)
    slope, intercept = np.polyfit(x, y, 1)
    beta = float(slope)
    alpha = float(np.exp(-intercept / beta))
    if beta <= 0:
        raise ConfigurationError(
            "median-rank regression produced a non-positive shape; "
            "the data is not Weibull-like")
    return WeibullDistribution(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class BootstrapFit:
    """A point estimate plus bootstrap percentile confidence intervals.

    ``alpha_samples`` / ``beta_samples`` retain the paired per-resample
    parameter draws so downstream consumers (the capacity forecaster)
    can propagate parameter uncertainty into predictions instead of
    re-running the bootstrap.
    """

    point: WeibullDistribution
    alpha_ci: tuple[float, float]
    beta_ci: tuple[float, float]
    resamples: int
    confidence: float
    alpha_samples: tuple[float, ...] = ()
    beta_samples: tuple[float, ...] = ()


def fit_bootstrap(lifetimes, resamples: int = 200,
                  confidence: float = 0.95, estimator=None,
                  rng: np.random.Generator | None = None,
                  events=None) -> BootstrapFit:
    """Nonparametric bootstrap CIs for the Weibull parameters.

    Resamples the lifetimes with replacement ``resamples`` times, refits
    with ``estimator`` (default :func:`fit_mle`), and reports percentile
    intervals at the given ``confidence`` level.  Randomness flows
    through :mod:`repro.sim.rng` so results are reproducible and the
    whole-repo RNG hygiene rules apply.

    With ``events`` (a boolean per observation, True = observed failure,
    False = right-censored) the resampling is *paired* - each bootstrap
    draw keeps every value with its censoring flag - and the default
    estimator becomes :func:`fit_censored_mle`.  A custom ``estimator``
    is then called as ``estimator(values, events)``.  All-censored input
    raises :class:`~repro.errors.AllCensoredError` up front; resamples
    that happen to draw no events fall back to the point estimate like
    any other degenerate resample.
    """
    from repro.sim.rng import make_rng

    if events is None:
        data = _validate_lifetimes(lifetimes)
        observed = None
    else:
        data, observed = _validate_censored(lifetimes, events)
    if resamples < 2:
        raise ConfigurationError("need at least 2 bootstrap resamples")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0, 1)")
    if rng is None:
        rng = make_rng(0)
    if observed is None:
        fit = estimator or fit_mle
        point = fit(data)
    else:
        fit = estimator or fit_censored_mle
        point = fit(data, observed)
    alphas = np.empty(resamples)
    betas = np.empty(resamples)
    for i in range(resamples):
        try:
            if observed is None:
                refit = fit(rng.choice(data, size=data.size, replace=True))
            else:
                idx = rng.integers(0, data.size, size=data.size)
                refit = fit(data[idx], observed[idx])
        except ConfigurationError:
            # A degenerate resample (e.g. all-identical draws breaking the
            # regression, or a censored resample with no events) counts as
            # the point estimate, not a crash.
            refit = point
        alphas[i] = refit.alpha
        betas[i] = refit.beta
    tail = (1.0 - confidence) / 2.0
    lo, hi = 100.0 * tail, 100.0 * (1.0 - tail)
    alpha_ci = tuple(float(v) for v in np.percentile(alphas, [lo, hi]))
    beta_ci = tuple(float(v) for v in np.percentile(betas, [lo, hi]))
    return BootstrapFit(point=point, alpha_ci=alpha_ci, beta_ci=beta_ci,
                        resamples=resamples, confidence=confidence,
                        alpha_samples=tuple(float(v) for v in alphas),
                        beta_samples=tuple(float(v) for v in betas))
