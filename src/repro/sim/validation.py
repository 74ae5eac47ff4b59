"""Statistical goodness-of-fit checks for lifetime models (Section 7).

The paper's limitation: "we need experimental data to validate the range
of parameters that are realistic of this or other alternative models".
These are the validation tools that close that loop once data exists:

- :func:`ks_test` - Kolmogorov-Smirnov distance and p-value of a sample
  against any model exposing ``cdf``/``reliability``;
- :func:`chi_square_binned` - chi-square on equiprobable bins (more
  sensitive to tail misfit than KS on small counts);
- :func:`validate_model` - the combined accept/flag verdict used before
  trusting a fitted model for architecture sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FitVerdict", "ks_test", "chi_square_binned", "validate_model"]


def _model_cdf(model):
    if hasattr(model, "cdf"):
        return model.cdf
    if hasattr(model, "reliability"):
        return lambda x: 1.0 - np.asarray(model.reliability(x))
    raise ConfigurationError(
        "model must expose cdf() or reliability()")


def _validate_sample(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < 8:
        raise ConfigurationError("need at least 8 lifetimes to test")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise ConfigurationError("lifetimes must be finite and > 0")
    return arr


def ks_test(data, model) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of data vs model."""
    from scipy import stats

    arr = _validate_sample(data)
    cdf = _model_cdf(model)
    result = stats.kstest(arr, lambda x: np.asarray(cdf(x), dtype=float))
    return float(result.statistic), float(result.pvalue)


def chi_square_binned(data, model, n_bins: int = 10,
                      ) -> tuple[float, float]:
    """Chi-square statistic/p-value on equiprobable model bins.

    Bin edges are the model's quantiles, so each bin expects
    ``len(data) / n_bins`` observations under the null.
    """
    from scipy import stats

    arr = _validate_sample(data)
    if n_bins < 3:
        raise ConfigurationError("need at least 3 bins")
    if arr.size < 5 * n_bins:
        raise ConfigurationError(
            f"need >= {5 * n_bins} observations for {n_bins} bins")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    if not hasattr(model, "quantile"):
        raise ConfigurationError("model must expose quantile()")
    edges = np.concatenate([[0.0], np.asarray(model.quantile(qs)),
                            [np.inf]])
    observed, _ = np.histogram(arr, bins=edges)
    expected = np.full(n_bins, arr.size / n_bins)
    # Parameters were fitted from the data (2 for every family here).
    ddof = 2
    result = stats.chisquare(observed, expected, ddof=ddof)
    return float(result.statistic), float(result.pvalue)


@dataclass(frozen=True)
class FitVerdict:
    """Combined goodness-of-fit verdict for one fitted model."""

    ks_statistic: float
    ks_pvalue: float
    chi2_statistic: float
    chi2_pvalue: float
    significance: float

    @property
    def acceptable(self) -> bool:
        """True when neither test rejects at the chosen significance."""
        return (self.ks_pvalue >= self.significance
                and self.chi2_pvalue >= self.significance)


def validate_model(data, model, significance: float = 0.01,
                   n_bins: int = 10) -> FitVerdict:
    """Run both tests; reject the model if either does.

    ``significance`` is deliberately conservative (1%): for architecture
    sizing a false "fits fine" is far more dangerous than a false alarm.
    """
    if not 0.0 < significance < 0.5:
        raise ConfigurationError("significance must lie in (0, 0.5)")
    ks_stat, ks_p = ks_test(data, model)
    chi2_stat, chi2_p = chi_square_binned(data, model, n_bins)
    return FitVerdict(ks_statistic=ks_stat, ks_pvalue=ks_p,
                      chi2_statistic=chi2_stat, chi2_pvalue=chi2_p,
                      significance=significance)
