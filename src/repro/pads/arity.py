"""M-ary decision trees: a generalization of the paper's binary pads.

The paper's trees branch binary (Section 6.2); nothing in the security
argument requires that.  An m-ary tree with ``L`` levels of branching
offers ``m**L`` paths with only ``L + 1`` switches on each path, so for
a fixed path count (the adversary's search space) a higher arity gives:

- a shorter path -> higher first-traversal success for the receiver
  (and the adversary - but the adversary is dominated by the 1/paths
  guessing term, which is held constant);
- lower traversal latency and per-retrieval energy (both ~ path length);
- roughly ``m / (m - 1)`` fewer switches per leaf.

The cost is electrical, not statistical: an m-way branch point needs an
m-way demux of NEMS switches and m-way routing, which this model prices
as ``demux_overhead`` extra area per branch node.  The closed forms
below mirror Eqs. 9-15 with ``paths = m**L``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.device import NEMS_CHARACTERISTICS, NEMSCharacteristics
from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError
from repro.pads.chip import BITS_PER_LEVEL

__all__ = [
    "MaryTreeDesign",
    "mary_path_success",
    "mary_receiver_success",
    "mary_adversary_success",
    "compare_arities",
]


class MaryTreeDesign:
    """Geometry of an m-ary decision tree with a target path count.

    ``n_paths`` is rounded up to the next power of ``arity``; the actual
    count is exposed as :attr:`paths`.
    """

    def __init__(self, arity: int, n_paths: int) -> None:
        if arity < 2:
            raise ConfigurationError("arity must be >= 2")
        if n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        self.arity = arity
        self.branch_levels = max(0, math.ceil(
            math.log(n_paths) / math.log(arity))) if n_paths > 1 else 0
        self.paths = arity ** self.branch_levels

    @property
    def path_length(self) -> int:
        """Switches actuated per traversal (entry switch + one/level)."""
        return self.branch_levels + 1

    @property
    def switch_count(self) -> int:
        """Total switches: entry plus a full m-way demux per branch node."""
        # Internal branch nodes: 1 + m + m^2 + ... + m^(L-1), each holding
        # m child-select switches; plus the entry switch.
        if self.branch_levels == 0:
            return 1
        internal = (self.arity ** self.branch_levels - 1) // (self.arity - 1)
        return 1 + internal * self.arity


def mary_path_success(device: WeibullDistribution,
                      design: MaryTreeDesign) -> float:
    """P[one traversal survives]: R(1) ** path_length (Eq. 9 analogue)."""
    return float(math.exp(device.log_reliability(1.0) * design.path_length))


def mary_receiver_success(device: WeibullDistribution,
                          design: MaryTreeDesign, n: int, k: int) -> float:
    """Eq. 10 analogue with the m-ary path success."""
    from scipy import stats

    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    return float(stats.binom.sf(k - 1, n, mary_path_success(device, design)))


def mary_adversary_success(device: WeibullDistribution,
                           design: MaryTreeDesign, n: int, k: int) -> float:
    """Eqs. 11-15 analogue: random-path-per-copy adversary."""
    from scipy import stats

    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    s1 = mary_path_success(device, design)
    p_right = 1.0 / design.paths
    xs = np.arange(k, n + 1)
    prob_x = stats.binom.pmf(xs, n, s1)
    prob_k_of_x = stats.binom.sf(k - 1, xs, p_right)
    return float(np.sum(prob_x * prob_k_of_x))


def compare_arities(device: WeibullDistribution, n_paths: int, n: int,
                    k: int, arities=(2, 4, 8, 16),
                    bits_per_level: int = BITS_PER_LEVEL,
                    chars: NEMSCharacteristics = NEMS_CHARACTERISTICS,
                    ) -> list[dict]:
    """Binary vs higher-arity trees at a fixed adversary search space.

    One row per arity: receiver/adversary success, traversal latency for
    n copies, switch count per tree, and leaf-register area (key length
    scales with path length, as in Section 6.5.1).
    """
    rows = []
    for arity in arities:
        design = MaryTreeDesign(arity, n_paths)
        latency = chars.switching_delay_s * design.path_length * n
        key_bits = bits_per_level * design.path_length
        register_area = design.paths * key_bits * chars.register_cell_area_nm2
        rows.append({
            "arity": arity,
            "paths": design.paths,
            "path_length": design.path_length,
            "receiver": mary_receiver_success(device, design, n, k),
            "adversary": mary_adversary_success(device, design, n, k),
            "traversal_latency_s": latency,
            "switches_per_tree": design.switch_count,
            "register_area_nm2": register_area,
        })
    return rows
