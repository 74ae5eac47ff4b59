"""Cross-module property tests: invariants that tie the layers together.

Each property here spans at least two subsystems (e.g. solver + analytic
structures + Monte Carlo, or crypto + hardware), so a regression in the
glue between layers is caught even when each layer's own tests pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degradation import (
    DegradationCriteria,
    PAPER_CRITERIA,
    solve_encoded_fractional,
)
from repro.core.hardware import SimulatedBank
from repro.core.structures import k_of_n_reliability
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import DeviceWornOutError
from repro.sim.montecarlo import simulate_access_bounds

ALPHAS = st.floats(9.0, 22.0)
BETAS = st.sampled_from([6.0, 8.0, 12.0, 16.0])


class TestSolverVsMonteCarlo:
    @given(alpha=ALPHAS, beta=BETAS, seed=st.integers(0, 2 ** 20))
    @settings(max_examples=15, deadline=None)
    def test_fabricated_instances_respect_the_window(self, alpha, beta,
                                                     seed):
        """Whatever the parameters, fabricated hardware lands inside the
        envelope the solver promises: hard-capped above by
        copies * (t + 2), and covering the access bound with at least the
        design's own aggregate coverage probability (shortfalls, when the
        coverage is marginal, are at most a handful of accesses)."""
        device = WeibullDistribution(alpha=alpha, beta=beta)
        design = solve_encoded_fractional(device, 500, 0.10,
                                          PAPER_CRITERIA)
        bounds = simulate_access_bounds(design, 40,
                                        np.random.default_rng(seed))
        assert np.all(bounds <= design.copies * (design.t + 2))
        coverage = design.coverage_probability()
        empirical = (bounds >= design.access_bound).mean()
        assert empirical >= max(coverage - 0.25, 0.0)
        # Any shortfall is marginal: never below 99% of the bound.
        assert np.all(bounds >= design.access_bound * 0.99)


class TestBankVsAnalyticReliability:
    @given(alpha=st.floats(5.0, 20.0), n=st.integers(2, 25),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_bank_survival_matches_binomial_tail(self, alpha, n, data):
        """Empirical P[bank survives access t] tracks the k-of-n formula."""
        k = data.draw(st.integers(1, n))
        t = data.draw(st.integers(1, int(alpha * 2)))
        device = WeibullDistribution(alpha=alpha, beta=8.0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 20)))
        trials = 300
        survived = 0
        for _ in range(trials):
            lifetimes = device.sample(size=n, rng=rng)
            alive_at_t = int((np.floor(lifetimes) >= t).sum())
            survived += alive_at_t >= k
        predicted = float(k_of_n_reliability(
            device.reliability(float(t)), n, k))
        assert survived / trials == pytest.approx(predicted, abs=0.09)


class TestHardwareMonotonicity:
    @given(lifetimes=st.lists(st.floats(0.0, 30.0), min_size=2,
                              max_size=12),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bank_never_resurrects(self, lifetimes, data):
        k = data.draw(st.integers(1, len(lifetimes)))
        bank = SimulatedBank(WearState(np.array([[lifetimes]]), k))
        results = [bank.access_succeeds() for _ in range(40)]
        # Once False, always False: wear is monotone.
        if False in results:
            first_failure = results.index(False)
            assert not any(results[first_failure:])

    @given(lifetimes=st.lists(st.floats(0.0, 30.0), min_size=1,
                              max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bank_life_is_max_lifetime_for_k1(self, lifetimes):
        bank = SimulatedBank(WearState(np.array([[lifetimes]]), 1))
        served = 0
        while bank.access_succeeds():
            served += 1
            assert served <= 31, "bank outlived every member lifetime"
        assert served == int(max(np.floor(v) for v in lifetimes))


class TestPhoneInvariants:
    @given(seed=st.integers(0, 2 ** 16), wrong_first=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_wrong_passcode_never_unlocks(self, seed, wrong_first):
        """No RNG seed, no attempt ordering makes a wrong passcode work
        or a right passcode fail (until wearout)."""
        from repro.connection.phone import SecurePhone

        device = WeibullDistribution(alpha=10.0, beta=8.0)
        design = solve_encoded_fractional(device, 60, 0.10,
                                          PAPER_CRITERIA)
        rng = np.random.default_rng(seed)
        phone = SecurePhone(design, "right", b"data", rng)
        order = (["wrong", "right"] if wrong_first
                 else ["right", "wrong"]) * 10
        try:
            for passcode in order:
                result = phone.login(passcode)
                assert result.success == (passcode == "right")
        except DeviceWornOutError:
            pass


class TestCriteriaDominance:
    @given(alpha=ALPHAS, beta=BETAS)
    @settings(max_examples=15, deadline=None)
    def test_stricter_criteria_never_cheaper(self, alpha, beta):
        device = WeibullDistribution(alpha=alpha, beta=beta)
        loose = solve_encoded_fractional(device, 1_000, 0.10,
                                         PAPER_CRITERIA)
        strict = solve_encoded_fractional(
            device, 1_000, 0.10,
            DegradationCriteria(r_min=0.999, p_fail=0.005))
        assert strict.total_devices >= loose.total_devices
