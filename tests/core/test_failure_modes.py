"""Tests for stuck-open vs stuck-closed failure-mode analysis."""

import numpy as np
import pytest

from repro.core.degradation import PAPER_CRITERIA, solve_encoded_fractional
from repro.core.failure_modes import (
    FailureMode,
    MixedModeSwitch,
    ceiling_violation_probability,
    effective_reliability,
    max_tolerable_stuck_closed,
    simulate_stuck_closed_inflation,
)
from repro.core.rotation import RotatingBank
from repro.core.structures import k_of_n_reliability
from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError

DEVICE = WeibullDistribution(alpha=10.0, beta=8.0)


@pytest.fixture(scope="module")
def design():
    return solve_encoded_fractional(DEVICE, 200, 0.10, PAPER_CRITERIA)


class TestMixedModeSwitch:
    def test_stuck_open_behaves_like_base(self):
        switch = MixedModeSwitch(2.0, FailureMode.STUCK_OPEN)
        assert [switch.actuate() for _ in range(4)] == [True, True, False,
                                                        False]

    def test_stuck_closed_conducts_forever(self):
        switch = MixedModeSwitch(2.0, FailureMode.STUCK_CLOSED)
        assert all(switch.actuate() for _ in range(20))
        assert switch.is_failed  # worn out, yet still conducting

    def test_mixed_batch_fractions(self, rng):
        batch = MixedModeSwitch.fabricate_mixed_batch(DEVICE, 5000, 0.2,
                                                      rng)
        stuck = sum(s.failure_mode is FailureMode.STUCK_CLOSED
                    for s in batch)
        assert stuck / 5000 == pytest.approx(0.2, abs=0.02)

    def test_batch_validates_fraction(self, rng):
        with pytest.raises(ConfigurationError):
            MixedModeSwitch.fabricate_mixed_batch(DEVICE, 10, 1.5, rng)

    def test_stuck_closed_bank_never_dies(self):
        switches = [MixedModeSwitch(1.0, FailureMode.STUCK_CLOSED)
                    for _ in range(4)]
        bank = RotatingBank(switches, k=2)
        assert all(bank.access() for _ in range(50))


class TestEffectiveReliability:
    def test_zero_stiction_matches_clean_model(self):
        x = 12.0
        clean = k_of_n_reliability(DEVICE.reliability(x), 50, 5)
        assert effective_reliability(DEVICE, x, 50, 5, 0.0) == \
            pytest.approx(float(clean))

    def test_stiction_raises_late_reliability(self):
        x = 20.0  # well past wearout
        clean = effective_reliability(DEVICE, x, 50, 5, 0.0)
        dirty = effective_reliability(DEVICE, x, 50, 5, 0.2)
        assert dirty > clean

    def test_full_stiction_is_immortal(self):
        assert effective_reliability(DEVICE, 1e6, 50, 5, 1.0) == \
            pytest.approx(1.0)

    def test_validates_fraction(self):
        with pytest.raises(ConfigurationError):
            effective_reliability(DEVICE, 1.0, 10, 2, -0.1)


class TestCeilingViolation:
    def test_clean_design_keeps_ceiling(self, design):
        assert ceiling_violation_probability(design, 0.0) < 1e-9

    def test_stiction_breaks_ceiling(self, design):
        q_fatal = design.k / design.n * 1.5
        violation = ceiling_violation_probability(design, min(q_fatal, 0.9))
        assert violation > 0.5

    def test_monotone_in_stiction(self, design):
        probs = [ceiling_violation_probability(design, q)
                 for q in (0.0, 0.05, 0.1, 0.2)]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))


class TestTolerableStiction:
    def test_threshold_below_k_over_n(self, design):
        q_max = max_tolerable_stuck_closed(design)
        assert 0.0 < q_max < design.k / design.n

    def test_threshold_is_tight(self, design):
        q_max = max_tolerable_stuck_closed(design)
        ok = float(k_of_n_reliability(q_max, design.n, design.k))
        bad = float(k_of_n_reliability(q_max * 1.3, design.n, design.k))
        assert ok <= design.criteria.p_fail + 1e-9
        assert bad > ok

    def test_custom_tolerance(self, design):
        strict = max_tolerable_stuck_closed(design, tolerance=1e-6)
        loose = max_tolerable_stuck_closed(design, tolerance=0.1)
        assert strict < loose

    def test_tolerance_validated(self, design):
        with pytest.raises(ConfigurationError):
            max_tolerable_stuck_closed(design, tolerance=0.0)


class TestSimulatedInflation:
    def test_clean_matches_baseline(self, design, rng):
        from repro.sim.montecarlo import simulate_access_bounds

        dirty = simulate_stuck_closed_inflation(design, 0.0, 200, rng)
        clean = simulate_access_bounds(design, 200,
                                       np.random.default_rng(0))
        assert dirty.mean() == pytest.approx(clean.mean(), rel=0.01)

    def test_stiction_inflates_bounds(self, design, rng):
        clean = simulate_stuck_closed_inflation(design, 0.0, 100, rng)
        dirty = simulate_stuck_closed_inflation(design, 0.08, 100, rng,
                                                max_accesses=10_000)
        assert dirty.mean() > clean.mean() * 1.2

    def test_immortal_requires_cap(self, design, rng):
        with pytest.raises(ConfigurationError):
            simulate_stuck_closed_inflation(design, 0.5, 20, rng)

    def test_validation(self, design, rng):
        with pytest.raises(ConfigurationError):
            simulate_stuck_closed_inflation(design, 0.1, 0, rng)
        with pytest.raises(ConfigurationError):
            simulate_stuck_closed_inflation(design, 2.0, 10, rng)
