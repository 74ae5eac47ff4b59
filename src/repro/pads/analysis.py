"""Closed-form success probabilities for decision-tree one-time pads.

Implements Section 6.3.1's equations verbatim:

- Eq. 9/12: one-path traversal success  S1 = exp(-(1/alpha)**beta * H)
  (H switches on a path, each must survive its first actuation),
- Eq. 10:  receiver success = P[Binom(n, S1) >= k],
- Eq. 11:  a random path is the right one with P = 2**-(H-1),
- Eq. 13-15: adversary success = sum over x successful traversals of the
  probability that at least k of them hit the right path.

The receiver knows the path; the adversary only differs in having to
guess it - exactly the paper's model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError

__all__ = [
    "path_success_probability",
    "receiver_success_probability",
    "adversary_success_probability",
    "success_grid",
]


def _validate(height: int, n: int, k: int) -> None:
    if height < 1:
        raise ConfigurationError("tree height must be >= 1")
    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")


def path_success_probability(device: WeibullDistribution,
                             height: int) -> float:
    """P[all H switches on one path survive their first actuation] (Eq. 9)."""
    if height < 1:
        raise ConfigurationError("tree height must be >= 1")
    return float(math.exp(device.log_reliability(1.0) * height))


def receiver_success_probability(device: WeibullDistribution, height: int,
                                 n: int, k: int) -> float:
    """P[the receiver recovers the key from >= k of n copies] (Eq. 10)."""
    from scipy import stats

    _validate(height, n, k)
    s1 = path_success_probability(device, height)
    return float(stats.binom.sf(k - 1, n, s1))


def adversary_success_probability(device: WeibullDistribution, height: int,
                                  n: int, k: int) -> float:
    """P[a path-guessing adversary recovers the key] (Eqs. 11-15).

    The adversary traverses one random path per copy; of the ``x`` copies
    whose traversal physically succeeds, each guessed the right path
    independently with probability ``2**-(H-1)``; recovery needs at least
    ``k`` right paths.
    """
    from scipy import stats

    _validate(height, n, k)
    s1 = path_success_probability(device, height)
    p_right = 2.0 ** -(height - 1)
    xs = np.arange(k, n + 1)
    prob_x = stats.binom.pmf(xs, n, s1)            # Eq. 13
    prob_k_of_x = stats.binom.sf(k - 1, xs, p_right)  # Eq. 14
    return float(np.sum(prob_x * prob_k_of_x))     # Eq. 15


def success_grid(device_for, heights, ks, n: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Receiver/adversary success over a (height, k) grid.

    ``device_for(height, k)`` supplies the device model per grid point
    (constant for Fig. 8; varying alpha for Fig. 9 by fixing k and mapping
    the second axis to alpha).  Returns two arrays of shape
    ``(len(heights), len(ks))``.
    """
    heights = list(heights)
    ks = list(ks)
    recv = np.zeros((len(heights), len(ks)))
    adv = np.zeros((len(heights), len(ks)))
    for i, h in enumerate(heights):
        for j, k in enumerate(ks):
            device = device_for(h, k)
            recv[i, j] = receiver_success_probability(device, h, n, k)
            adv[i, j] = adversary_success_probability(device, h, n, k)
    return recv, adv
