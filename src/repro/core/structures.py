"""Analytic reliability of architectural switch arrangements (Section 4.1).

Given one device's reliability ``r = R(x)`` at access ``x``, the structures
the paper considers have closed-form system reliability:

- series chain of n      : r**n                         (Eq. 5)
- 1-out-of-n parallel    : 1 - (1 - r)**n               (Eq. 6)
- k-out-of-n parallel    : P[Binom(n, r) >= k]          (Eq. 8)

All computations are done in the log domain where needed so that the
no-encoding design points - which require *billions* of parallel devices -
evaluate without underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError

__all__ = [
    "series_reliability",
    "parallel_reliability",
    "k_of_n_reliability",
    "SeriesStructure",
    "ParallelStructure",
    "KOutOfNStructure",
]


def series_reliability(r, n: int):
    """Reliability of ``n`` devices in series, each with reliability ``r``."""
    if n < 1:
        raise ConfigurationError("series structure needs n >= 1")
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(n * np.log(np.clip(r, 0.0, 1.0)))
    return out if out.ndim else float(out)


def parallel_reliability(r, n: int):
    """Reliability of a 1-out-of-n parallel bank (any survivor suffices).

    Uses ``1 - (1-r)**n`` evaluated as ``-expm1(n * log1p(-r))`` so it is
    exact for n as large as 1e12 and r arbitrarily close to 0 or 1.
    """
    if n < 1:
        raise ConfigurationError("parallel structure needs n >= 1")
    r = np.asarray(np.clip(r, 0.0, 1.0), dtype=float)
    with np.errstate(divide="ignore"):
        out = -np.expm1(n * np.log1p(-r))
    return out if out.ndim else float(out)


def k_of_n_reliability(r, n: int, k: int):
    """Reliability of a k-out-of-n structure: P[Binom(n, r) >= k] (Eq. 8).

    ``k = 1`` and ``k = n`` fall back to the exact closed forms (which also
    handle astronomically large ``n``); other cases use the regularized
    incomplete beta function via scipy's binomial survival function.
    """
    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return parallel_reliability(r, n)
    if k == n:
        return series_reliability(r, n)
    from scipy import stats

    r = np.asarray(np.clip(r, 0.0, 1.0), dtype=float)
    out = stats.binom.sf(k - 1, n, r)
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SeriesStructure:
    """``n`` identical Weibull devices in series (all must survive).

    The paper rejects this arrangement: to scale the effective wearout
    bound down by a factor ``y`` you need ``n = y**beta`` devices
    (:meth:`devices_for_scale_reduction`), exponential in the shape.
    """

    device: WeibullDistribution
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("series structure needs n >= 1")

    def reliability(self, x):
        return series_reliability(self.device.reliability(x), self.n)

    def equivalent_device(self) -> WeibullDistribution:
        """Single-device Weibull with identical reliability curve (Eq. 5)."""
        return self.device.series_equivalent(self.n)

    @staticmethod
    def devices_for_scale_reduction(y: float, beta: float) -> int:
        """Chain length needed to divide the effective scale by ``y``."""
        if y < 1:
            raise ConfigurationError("scale reduction factor must be >= 1")
        return math.ceil(y ** beta)

    @property
    def device_count(self) -> int:
        return self.n


@dataclass(frozen=True)
class ParallelStructure:
    """1-out-of-n parallel bank: the structure works while any device does."""

    device: WeibullDistribution
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("parallel structure needs n >= 1")

    def reliability(self, x):
        return parallel_reliability(self.device.reliability(x), self.n)

    @property
    def device_count(self) -> int:
        return self.n


@dataclass(frozen=True)
class KOutOfNStructure:
    """k-out-of-n parallel bank under redundant encoding (Section 4.1.4).

    The secret is split into ``n`` Shamir/Reed-Solomon components, one per
    device; recovery needs at least ``k`` live devices.  Architecturally
    this interpolates between the 1-of-n parallel bank (k=1) and the series
    chain (k=n), and tuning ``k`` is what tightens the degradation window.
    """

    device: WeibullDistribution
    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ConfigurationError(
                f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    def reliability(self, x):
        return k_of_n_reliability(self.device.reliability(x), self.n, self.k)

    @property
    def device_count(self) -> int:
        return self.n

    @property
    def redundancy_fraction(self) -> float:
        """k/n - the paper's "redundancy level" axis (lower = more redundant)."""
        return self.k / self.n
