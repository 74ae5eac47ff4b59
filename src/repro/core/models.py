"""Alternative lifetime models and model selection (paper Section 7).

The paper models wearout as Weibull but flags validating "this or other
alternative models" as open work.  This module provides the two standard
competitors from the reliability literature - lognormal and gamma - plus
maximum-likelihood fitting and AIC/BIC model selection, so lifetime data
can be tested against all three families before an architecture is sized.

Every model exposes the same surface the architecture code needs
(``reliability``/``pdf``/``sample``/``mean``) and a
``weibull_equivalent()`` projection for feeding the degradation solver,
which is specialized to Weibull mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError

__all__ = [
    "LognormalLifetime",
    "GammaLifetime",
    "fit_lifetime_model",
    "ModelFit",
    "select_lifetime_model",
]


@dataclass(frozen=True)
class LognormalLifetime:
    """Lognormal time-to-failure: log(x) ~ Normal(mu, sigma)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)
                and math.isfinite(self.mu)):
            raise ConfigurationError(
                "lognormal needs finite mu and sigma > 0")

    @property
    def _dist(self):
        from scipy import stats

        return stats.lognorm(s=self.sigma, scale=math.exp(self.mu))

    def pdf(self, x):
        return self._dist.pdf(x)

    def reliability(self, x):
        return self._dist.sf(x)

    def quantile(self, q):
        return self._dist.ppf(q)

    @property
    def mean(self) -> float:
        return float(self._dist.mean())

    def sample(self, size=None, rng: np.random.Generator | None = None):
        if rng is None:
            from repro.sim.rng import make_rng

            rng = make_rng()
        out = rng.lognormal(self.mu, self.sigma, size=size)
        return float(out) if size is None else out

    def loglike(self, data) -> float:
        return float(np.sum(self._dist.logpdf(data)))

    def weibull_equivalent(self) -> WeibullDistribution:
        """Weibull with matching 10th/90th percentiles.

        A quantile-matched projection, good enough to drive the solver
        when the data is only mildly non-Weibull; prefer re-fitting
        Weibull directly when it wins model selection anyway.
        """
        return _weibull_from_quantiles(self.quantile(0.1),
                                       self.quantile(0.9))

    n_parameters = 2


@dataclass(frozen=True)
class GammaLifetime:
    """Gamma time-to-failure with shape ``k`` and scale ``theta``."""

    k: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and self.theta > 0):
            raise ConfigurationError("gamma needs k > 0 and theta > 0")

    @property
    def _dist(self):
        from scipy import stats

        return stats.gamma(a=self.k, scale=self.theta)

    def pdf(self, x):
        return self._dist.pdf(x)

    def reliability(self, x):
        return self._dist.sf(x)

    def quantile(self, q):
        return self._dist.ppf(q)

    @property
    def mean(self) -> float:
        return self.k * self.theta

    def sample(self, size=None, rng: np.random.Generator | None = None):
        if rng is None:
            from repro.sim.rng import make_rng

            rng = make_rng()
        out = rng.gamma(self.k, self.theta, size=size)
        return float(out) if size is None else out

    def loglike(self, data) -> float:
        return float(np.sum(self._dist.logpdf(data)))

    def weibull_equivalent(self) -> WeibullDistribution:
        return _weibull_from_quantiles(self.quantile(0.1),
                                       self.quantile(0.9))

    n_parameters = 2


def _weibull_from_quantiles(x10: float, x90: float) -> WeibullDistribution:
    """The Weibull whose 10th/90th percentiles are (x10, x90)."""
    if not 0 < x10 < x90:
        raise ConfigurationError("need 0 < x10 < x90")
    # F(x) = 1 - exp(-(x/a)^b): solve the two quantile equations.
    c10 = math.log(-math.log(0.9))
    c90 = math.log(-math.log(0.1))
    beta = (c90 - c10) / (math.log(x90) - math.log(x10))
    alpha = x10 / (-math.log(0.9)) ** (1.0 / beta)
    return WeibullDistribution(alpha=alpha, beta=beta)


# ----------------------------------------------------------------------
# Fitting and selection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFit:
    """One fitted family with its information criteria."""

    family: str
    model: object
    loglike: float
    aic: float
    bic: float


def _validate(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < 3:
        raise ConfigurationError("need at least 3 lifetimes to fit")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise ConfigurationError("lifetimes must be finite and > 0")
    return arr


def fit_lifetime_model(data, family: str):
    """Maximum-likelihood fit of one family: weibull | lognormal | gamma."""
    arr = _validate(data)
    if family == "weibull":
        from repro.core.fitting import fit_mle

        return fit_mle(arr)
    if family == "lognormal":
        logs = np.log(arr)
        sigma = float(logs.std())
        if sigma == 0.0:
            sigma = 1e-9
        return LognormalLifetime(mu=float(logs.mean()), sigma=sigma)
    if family == "gamma":
        from scipy import stats

        k, _, theta = stats.gamma.fit(arr, floc=0.0)
        return GammaLifetime(k=float(k), theta=float(theta))
    raise ConfigurationError(f"unknown family {family!r}")


def _weibull_loglike(model: WeibullDistribution, data: np.ndarray) -> float:
    z = data / model.alpha
    return float(np.sum(np.log(model.beta / model.alpha)
                        + (model.beta - 1) * np.log(z) - z ** model.beta))


def select_lifetime_model(data) -> list[ModelFit]:
    """Fit all three families; return fits sorted by AIC (best first).

    Ties in practice go to Weibull for moderately-sized samples from any
    of the families - which is why the paper's choice is a safe default -
    but heavy-tailed data will surface lognormal here.
    """
    arr = _validate(data)
    n = arr.size
    fits = []
    for family in ("weibull", "lognormal", "gamma"):
        model = fit_lifetime_model(arr, family)
        if family == "weibull":
            ll = _weibull_loglike(model, arr)
            n_params = 2
        else:
            ll = model.loglike(arr)
            n_params = model.n_parameters
        fits.append(ModelFit(
            family=family, model=model, loglike=ll,
            aic=2 * n_params - 2 * ll,
            bic=n_params * math.log(n) - 2 * ll,
        ))
    return sorted(fits, key=lambda f: f.aic)
