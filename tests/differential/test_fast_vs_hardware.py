"""Vectorized vs stateful simulator cross-validation on a design grid.

``simulate_access_bounds`` computes access bounds from order statistics:
each bank serves its k-th largest integer budget ``floor(lifetime)``.
``simulate_access_bounds_hardware`` fabricates stateful instances and
drives them to exhaustion.  Both draw the same ``(trials, copies, n)``
lifetimes from the generator, and the engine's one closed form, run
from a freshly fabricated state, sums the same k-th largest budgets
(both through ``kth_largest``), so on the same seed and trial count the
two return the same bounds element for element.
The grid pins that equality; an off-by-one in either path breaks it.
"""

import numpy as np
import pytest

from repro.core.degradation import PAPER_CRITERIA
from repro.core.sizing import size_architecture
from repro.sim.montecarlo import (
    simulate_access_bounds,
    simulate_access_bounds_hardware,
)
from repro.sim.rng import make_rng

TRIALS = 4000

#: (alpha, beta, access_bound) - small designs so the stateful path
#: stays affordable; spans shape, scale and sizing variation.
DESIGN_GRID = [
    (10.0, 8.0, 40),
    (9.0, 8.0, 30),
    (10.0, 5.0, 40),
    (12.0, 10.0, 60),
]


@pytest.mark.parametrize("alpha,beta,bound", DESIGN_GRID)
def test_fast_and_hardware_agree_statistically(alpha, beta, bound):
    """The two paths return identical bounds, not only similar ones."""
    design = size_architecture(alpha, beta, bound, k_fraction=0.10,
                               criteria=PAPER_CRITERIA,
                               window="fractional")
    seed = hash((alpha, beta, bound)) % (2 ** 31)
    fast = simulate_access_bounds(design, TRIALS, make_rng(seed))
    hardware = simulate_access_bounds_hardware(design, TRIALS,
                                               make_rng(seed))
    assert np.array_equal(fast, hardware), (
        f"fast and hardware bounds differ on design {design}")

    # Both must respect the design's sizing: every instance serves at
    # least the designed bound.
    assert int(fast.min()) >= bound
    assert int(hardware.min()) >= bound


def test_hardware_matches_itself_across_rng_paths():
    # Same seed, same design: the stateful path is deterministic.
    design = size_architecture(10.0, 8.0, 40, k_fraction=0.10,
                               criteria=PAPER_CRITERIA,
                               window="fractional")
    a = simulate_access_bounds_hardware(design, 20, make_rng(9))
    b = simulate_access_bounds_hardware(design, 20, make_rng(9))
    assert np.array_equal(a, b)
