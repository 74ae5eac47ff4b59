"""Tests for the fabricated limited-use connection."""

import pytest

from repro.connection.architecture import (
    LimitedUseConnection,
    fabricate_copies,
)
from repro.core.degradation import PAPER_CRITERIA, solve_encoded_fractional
from repro.core.variation import LognormalVariation
from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError, DeviceWornOutError

SECRET = b"hardware key 128"


@pytest.fixture
def design():
    device = WeibullDistribution(alpha=10.0, beta=8.0)
    return solve_encoded_fractional(device, 100, 0.10, PAPER_CRITERIA)


class TestReadKey:
    def test_reads_return_secret(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        for _ in range(design.access_bound):
            assert connection.read_key() == SECRET

    def test_wears_out_near_the_bound(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        reads = 0
        try:
            while True:
                connection.read_key()
                reads += 1
        except DeviceWornOutError:
            pass
        # Guaranteed at least the bound; fractional window allows at most
        # ~copies * (t + 2) total.
        assert design.access_bound <= reads
        assert reads <= design.copies * (design.t + 2)
        assert connection.is_exhausted

    def test_accesses_counted(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        connection.read_key()
        connection.read_key()
        assert connection.accesses == 2

    def test_copies_consumed_in_order(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        assert connection.current_copy == 0
        for _ in range(design.t + 3):
            connection.read_key()
        assert connection.current_copy >= 1

    def test_device_count(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        assert connection.device_count == design.total_devices

    def test_exhausted_connection_keeps_raising(self, design, rng):
        connection = LimitedUseConnection(design, SECRET, rng)
        with pytest.raises(DeviceWornOutError):
            for _ in range(10 ** 6):
                connection.read_key()
        with pytest.raises(DeviceWornOutError):
            connection.read_key()


class TestFabricateCopies:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("variation", [
        None, LognormalVariation(sigma_beta=0.1)], ids=["block", "per-copy"])
    def test_refuses_lifetimes_the_engine_cannot_count(self, variation,
                                                       rng):
        device = WeibullDistribution(alpha=1e300, beta=1e-3)
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*63\)"):
            fabricate_copies(device, 3, 6, 2, SECRET, rng,
                             variation=variation)
