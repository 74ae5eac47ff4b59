"""Tests for stateful hardware simulation (banks and serial copies)."""

import numpy as np
import pytest

from repro.core.hardware import SerialCopies, SimulatedBank, build_serial_copies
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import ConfigurationError, DeviceWornOutError


def bank_with_lifetimes(lifetimes, k=1):
    state = WearState(np.array([[lifetimes]], dtype=float), k)
    return SimulatedBank(state)


class TestSimulatedBank:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            bank_with_lifetimes([], 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            bank_with_lifetimes([1, 2], k=3)
        with pytest.raises(ConfigurationError):
            bank_with_lifetimes([1, 2], k=0)

    def test_access_returns_closed_indices(self):
        bank = bank_with_lifetimes([2, 0, 5])
        assert bank.access() == [0, 2]

    def test_all_switches_wear_on_each_access(self):
        bank = bank_with_lifetimes([3, 3, 3])
        bank.access()
        assert all(s.cycles_used == 1 for s in bank.switches)

    def test_bank_serves_kth_largest_lifetime(self):
        # k = 2 of lifetimes [1, 3, 5]: dies when fewer than 2 alive,
        # i.e. after access 3 (the 2nd-largest integer budget).
        bank = bank_with_lifetimes([1, 3, 5], k=2)
        served = 0
        while bank.access_succeeds():
            served += 1
        assert served == 3

    def test_dead_bank_stays_dead_and_stops_wearing(self):
        bank = bank_with_lifetimes([1, 1], k=2)
        assert bank.access_succeeds()
        assert not bank.access_succeeds()
        cycles = [s.cycles_used for s in bank.switches]
        bank.access()
        assert bank.is_dead
        assert [s.cycles_used for s in bank.switches] == cycles

    def test_alive_count(self):
        bank = bank_with_lifetimes([1, 2, 3])
        assert bank.alive_count == 3
        bank.access()
        assert bank.alive_count == 2


class TestSerialCopies:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SerialCopies([])

    def test_total_accesses_is_sum_of_bank_lifetimes(self):
        banks = [bank_with_lifetimes([2, 4], k=1),
                 bank_with_lifetimes([3, 1], k=1)]
        copies = SerialCopies(banks)
        assert copies.count_successful_accesses() == 4 + 3

    def test_fall_over_to_next_bank(self):
        copies = SerialCopies([bank_with_lifetimes([1]),
                               bank_with_lifetimes([5])])
        copies.access()
        assert copies.current_index == 0
        bank_index, _ = copies.access()  # first bank dies, second serves
        assert bank_index == 1

    def test_raises_when_exhausted(self):
        copies = SerialCopies([bank_with_lifetimes([1])])
        copies.access()
        with pytest.raises(DeviceWornOutError):
            copies.access()
        assert copies.is_exhausted

    def test_max_accesses_cap(self):
        copies = SerialCopies([bank_with_lifetimes([100])])
        assert copies.count_successful_accesses(max_accesses=7) == 7

    def test_device_count(self):
        copies = SerialCopies([bank_with_lifetimes([1, 2]),
                               bank_with_lifetimes([3])])
        assert copies.device_count == 3


class TestBuildSerialCopies:
    def test_build_shape(self, rng):
        model = WeibullDistribution(alpha=10.0, beta=8.0)
        hardware = build_serial_copies(model, n_copies=4, n_per_bank=6,
                                       k=2, rng=rng)
        assert len(hardware.banks) == 4
        assert all(b.n == 6 and b.k == 2 for b in hardware.banks)

    def test_build_rejects_zero_copies(self, rng):
        model = WeibullDistribution(alpha=10.0, beta=8.0)
        with pytest.raises(ConfigurationError):
            build_serial_copies(model, 0, 5, 1, rng)

    def test_empirical_bound_near_design_target(self, rng):
        """A solver-style design should serve ~copies * t accesses."""
        model = WeibullDistribution(alpha=10.0, beta=12.0)
        # 40-wide 1-of-n banks serve ~10 accesses each (Fig. 3b).
        hardware = build_serial_copies(model, n_copies=10, n_per_bank=40,
                                       k=1, rng=rng)
        served = hardware.count_successful_accesses()
        assert 90 <= served <= 125

    def test_reproducibility(self):
        model = WeibullDistribution(alpha=10.0, beta=8.0)
        a = build_serial_copies(model, 3, 5, 1, np.random.default_rng(9))
        b = build_serial_copies(model, 3, 5, 1, np.random.default_rng(9))
        assert (a.count_successful_accesses()
                == b.count_successful_accesses())
