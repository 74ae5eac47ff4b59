"""Two-parameter Weibull wearout model (paper Section 2.2, Eqs. 1-3).

The time to failure ``x`` of a wearout device (cycles of actuation before
permanent failure) is modelled as Weibull distributed:

    pdf          f(x) = (beta/alpha) * (x/alpha)**(beta-1) * exp(-(x/alpha)**beta)
    cdf          F(x) = 1 - exp(-(x/alpha)**beta)
    reliability  R(x) = exp(-(x/alpha)**beta)

``alpha`` (the scale) approximates the mean time to failure; ``beta`` (the
shape) controls how consistently devices in a population degrade - larger
``beta`` means a sharper failure peak and a tighter wearout window.

All functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["WeibullDistribution"]


@dataclass(frozen=True)
class WeibullDistribution:
    """A frozen two-parameter Weibull distribution.

    Parameters
    ----------
    alpha:
        Scale parameter in cycles; strictly positive.  Approximates the
        mean cycles-to-failure of a device population.
    beta:
        Shape parameter; strictly positive.  Homogeneous populations have
        large ``beta`` (sharp wearout), heavy process variation drives
        ``beta`` down toward 1 (exponential-like failures).

    Examples
    --------
    >>> w = WeibullDistribution(alpha=10.0, beta=12.0)
    >>> round(w.reliability(5.0), 6)
    0.999756
    >>> w.reliability(0.0)
    1.0
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ConfigurationError(
                f"Weibull scale alpha must be finite and > 0, got {self.alpha!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ConfigurationError(
                f"Weibull shape beta must be finite and > 0, got {self.beta!r}")

    # ------------------------------------------------------------------
    # Density and distribution functions
    # ------------------------------------------------------------------
    def pdf(self, x):
        """Probability density of failing exactly at time ``x`` (Eq. 1)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(x > 0, x / self.alpha, 0.0)
            out = np.where(
                x > 0,
                (self.beta / self.alpha)
                * z ** (self.beta - 1.0)
                * np.exp(-(z ** self.beta)),
                0.0,
            )
            # At x == 0 the density is beta/alpha when beta == 1, 0 when
            # beta > 1, and diverges when beta < 1; we report the limit for
            # the two well-defined cases and 0 otherwise.
            if self.beta == 1.0:
                out = np.where(x == 0, 1.0 / self.alpha, out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Probability of failure on or before time ``x`` (Eq. 2)."""
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-np.power(np.maximum(x, 0.0) / self.alpha, self.beta))
        return out if out.ndim else float(out)

    def reliability(self, x):
        """Probability of surviving past time ``x``: R(x) = 1 - F(x) (Eq. 3)."""
        x = np.asarray(x, dtype=float)
        out = np.exp(-np.power(np.maximum(x, 0.0) / self.alpha, self.beta))
        return out if out.ndim else float(out)

    # ``sf`` is the conventional scipy name; keep it as an alias so the
    # model drops into code written against scipy.stats distributions.
    sf = reliability

    def log_reliability(self, x):
        """Natural log of the reliability; exact even when R underflows."""
        x = np.asarray(x, dtype=float)
        out = -np.power(np.maximum(x, 0.0) / self.alpha, self.beta)
        return out if out.ndim else float(out)

    def hazard(self, x):
        """Instantaneous failure rate h(x) = f(x) / R(x)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = np.where(x > 0, x / self.alpha, 0.0)
            out = np.where(
                x > 0,
                (self.beta / self.alpha) * z ** (self.beta - 1.0),
                (1.0 / self.alpha) if self.beta == 1.0 else 0.0,
            )
        return out if out.ndim else float(out)

    def conditional_reliability(self, x, age):
        """P[survive ``x`` further cycles | already survived ``age``].

        R(x | age) = R(age + x) / R(age); for beta > 1 this decreases
        with age (wearout), which is what makes second-hand limited-use
        modules *more* secure but less reliable.
        """
        age = float(age)
        if age < 0:
            raise ConfigurationError("age must be >= 0")
        x = np.asarray(x, dtype=float)
        log_r = (self.log_reliability(age + np.maximum(x, 0.0))
                 - self.log_reliability(age))
        out = np.exp(log_r)
        return out if out.ndim else float(out)

    def mean_residual_life(self, age, horizon_factor: float = 8.0) -> float:
        """Expected further cycles for a device that survived ``age``."""
        age = float(age)
        if age < 0:
            raise ConfigurationError("age must be >= 0")
        horizon = max(self.alpha * horizon_factor, age + 10 * self.alpha)
        xs = np.linspace(0.0, horizon - age, 20_001)
        rel = self.conditional_reliability(xs, age)
        return float(np.trapezoid(rel, xs))

    def quantile(self, q):
        """Inverse CDF: the time by which a fraction ``q`` has failed."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ConfigurationError("quantile argument must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.alpha * np.power(-np.log1p(-q), 1.0 / self.beta)
        return out if out.ndim else float(out)

    ppf = quantile

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mean time to failure: alpha * Gamma(1 + 1/beta)."""
        return self.alpha * math.gamma(1.0 + 1.0 / self.beta)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.beta)
        g2 = math.gamma(1.0 + 2.0 / self.beta)
        return self.alpha ** 2 * (g2 - g1 ** 2)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def median(self) -> float:
        return self.alpha * math.log(2.0) ** (1.0 / self.beta)

    @property
    def mode(self) -> float:
        """Most likely failure time (0 for beta <= 1)."""
        if self.beta <= 1.0:
            return 0.0
        return self.alpha * ((self.beta - 1.0) / self.beta) ** (1.0 / self.beta)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, size=None, rng: np.random.Generator | None = None):
        """Draw lifetimes by inverse-transform sampling.

        Parameters
        ----------
        size:
            None for a single float, otherwise an int or shape tuple.
        rng:
            A ``numpy.random.Generator``; a fresh default generator is used
            when omitted (non-reproducible - pass one for experiments).
        """
        if rng is None:
            from repro.sim.rng import make_rng

            rng = make_rng()
        out = self.inverse_transform(rng.random(size=size))
        if size is None:
            return float(out)
        return out

    def inverse_transform(self, u):
        """The lifetimes :meth:`sample` makes of uniforms ``u`` in [0, 1).

        Unlike :meth:`quantile` it does not validate ``u``: callers hand
        it a generator's uniforms, which lie in range.
        """
        return self.alpha * np.power(-np.log1p(-u), 1.0 / self.beta)

    # ------------------------------------------------------------------
    # Helpers used by architectural reasoning
    # ------------------------------------------------------------------
    def degradation_window(self, r_high: float = 0.99,
                           r_low: float = 0.01) -> float:
        """Width (in cycles) between the ``r_high`` and ``r_low`` reliability
        crossings - the paper's notion of a device's degradation window.
        """
        if not 0.0 < r_low < r_high < 1.0:
            raise ConfigurationError(
                "need 0 < r_low < r_high < 1 for a degradation window")
        t_high = self.alpha * (-math.log(r_high)) ** (1.0 / self.beta)
        t_low = self.alpha * (-math.log(r_low)) ** (1.0 / self.beta)
        return t_low - t_high

    def scaled(self, factor: float) -> "WeibullDistribution":
        """A copy with the scale parameter multiplied by ``factor``.

        Used by the paper's "scale alpha down" technique (Fig. 3a): the
        shape of the reliability curve is preserved while the window
        shrinks proportionally.
        """
        return WeibullDistribution(alpha=self.alpha * factor, beta=self.beta)

    def series_equivalent(self, n: int) -> "WeibullDistribution":
        """The single-device model equivalent to ``n`` of these in series.

        Section 4.1.2: n devices in series behave like one device with
        scale alpha / n**(1/beta) and the same shape - which is why series
        chaining is an ineffective way to accelerate wearout (reaching a
        scale reduction of y requires n = y**beta devices).
        """
        if n < 1:
            raise ConfigurationError("series chain needs n >= 1 devices")
        return WeibullDistribution(
            alpha=self.alpha / n ** (1.0 / self.beta), beta=self.beta)
