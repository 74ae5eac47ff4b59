"""Tests for the resilient access layer (retry, quarantine, RS fallback)."""

import numpy as np
import pytest

from repro.connection.resilient import (
    AccessStats,
    CopyHealth,
    ResilientAccessController,
    RetryPolicy,
)
from repro.core.degradation import PAPER_CRITERIA, solve_encoded_fractional
from repro.core.weibull import WeibullDistribution
from repro.errors import (
    ConfigurationError,
    DecodingFailure,
    DeviceWornOutError,
)
from repro.faults.injectors import FaultModel
from tests.differential._reference import PerShareInjector

SECRET = b"resilient secret"


@pytest.fixture(scope="module")
def design():
    device = WeibullDistribution(alpha=10.0, beta=8.0)
    return solve_encoded_fractional(device, 40, 0.10, PAPER_CRITERIA)


def controller(design, hook=None, **kwargs):
    return ResilientAccessController(design, SECRET,
                                     np.random.default_rng(0),
                                     fault_hook=hook, **kwargs)


# Deterministic injectors exercising the pluggable injector API, written
# one share at a time.
class CorruptShareZero(PerShareInjector):
    """Always flips every bit of share 0 - one error per readout set."""

    name = "corrupt-share-0"

    def on_share_readout(self, bank_id, index, data, rng):
        if index == 0:
            self.injections += 1
            return bytes(b ^ 0xFF for b in data)
        return data


class PoisonBank(PerShareInjector):
    """Corrupts every readout of one bank; other banks read clean."""

    name = "poison-bank"

    def __init__(self, bank_id):
        super().__init__()
        self.target = bank_id

    def on_share_readout(self, bank_id, index, data, rng):
        if bank_id == self.target:
            self.injections += 1
            return bytes(b ^ 0xFF for b in data)
        return data


class TimeoutFirstReadouts(PerShareInjector):
    """Times out the first ``count`` readouts, then behaves."""

    name = "timeout-burst"

    def __init__(self, count):
        super().__init__()
        self.remaining = count

    def on_share_readout(self, bank_id, index, data, rng):
        if self.remaining > 0:
            self.remaining -= 1
            self.injections += 1
            return None
        return data


def model_of(*injectors):
    return FaultModel(injectors, rng=np.random.default_rng(1))


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=3.0)
        assert policy.backoff_s(0) == 0.5
        assert policy.backoff_s(2) == 0.5 * 9.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(quarantine_after=0)


class TestCopyHealth:
    def test_quarantine_trips_exactly_once(self):
        health = CopyHealth(bank_id=0)
        assert not health.note_failure(quarantine_after=2)
        assert health.note_failure(quarantine_after=2)  # trips here
        assert not health.note_failure(quarantine_after=2)  # already out
        assert health.quarantined and not health.available

    def test_success_resets_the_streak(self):
        health = CopyHealth(bank_id=0)
        health.note_failure(quarantine_after=3)
        health.note_failure(quarantine_after=3)
        health.note_success()
        assert health.consecutive_failures == 0
        assert not health.note_failure(quarantine_after=3)
        assert health.available


class TestHappyPath:
    def test_faultless_controller_is_fully_available(self, design):
        ctrl = controller(design)
        served = 0
        while True:
            try:
                assert ctrl.read_key() == SECRET
            except DeviceWornOutError:
                break
            served += 1
        assert served >= design.access_bound * 0.9
        assert served <= design.copies * (design.t + 2)
        stats = ctrl.stats
        assert stats.availability == served / (served + 1)
        assert stats.retries == 0
        assert stats.corruption_detected == 0
        # Every copy wore out physically; each wearout is one fall-over.
        assert all(h.dead for h in ctrl.health)
        assert stats.fallovers == design.copies
        assert ctrl.is_exhausted

    def test_stats_serialization(self):
        stats = AccessStats(calls=4, successes=3)
        as_dict = stats.as_dict()
        assert as_dict["availability"] == pytest.approx(0.75)
        assert as_dict["calls"] == 4


class TestTransientRetry:
    def test_timeout_burst_absorbed_by_one_retry(self, design):
        burst = TimeoutFirstReadouts(design.n)  # starves attempt 1 only
        ctrl = controller(design, hook=model_of(burst))
        assert ctrl.read_key() == SECRET
        stats = ctrl.stats
        assert stats.successes == 1
        assert stats.retries == 1
        assert stats.attempts == 2
        assert stats.backoff_total_s > 0.0
        # The transient failure must not linger on the health ledger.
        assert ctrl.health[0].consecutive_failures == 0
        assert ctrl.health[0].available


class TestDegradedRecovery:
    def test_single_corrupt_share_recovers_through_rs(self, design):
        ctrl = controller(design, hook=model_of(CorruptShareZero()))
        assert ctrl.read_key() == SECRET
        stats = ctrl.stats
        assert stats.corruption_detected >= 1
        assert stats.degraded_recoveries >= 1
        assert stats.successes == 1
        assert ctrl.health[0].degraded_recoveries >= 1

    def test_no_rs_fallback_raises_instead(self, design):
        ctrl = controller(design, hook=model_of(CorruptShareZero()),
                          rs_fallback=False,
                          policy=RetryPolicy(max_attempts=2))
        assert not ctrl.rs_fallback
        with pytest.raises(DecodingFailure) as excinfo:
            ctrl.read_key()
        assert "no RS fallback" in str(excinfo.value)
        assert excinfo.value.bank_id == 0

    def test_never_returns_a_wrong_secret(self, design):
        """Total corruption: every read raises; none returns garbage."""
        poison = model_of(*(PoisonBank(i) for i in range(design.copies)))
        ctrl = controller(design, hook=poison,
                          policy=RetryPolicy(max_attempts=2,
                                             quarantine_after=100))
        for _ in range(5):
            with pytest.raises(DecodingFailure):
                ctrl.read_key()
        assert ctrl.stats.successes == 0
        assert ctrl.stats.corruption_detected > 0


class TestQuarantine:
    def test_poisoned_copy_is_quarantined_and_routed_around(self, design):
        assert design.copies >= 2
        ctrl = controller(design, hook=model_of(PoisonBank(0)))
        # Default policy: 3 consecutive failures quarantine copy 0, the
        # 4th attempt falls over to copy 1 and succeeds.
        assert ctrl.read_key() == SECRET
        assert ctrl.quarantined_copies == [0]
        assert ctrl.current_copy == 1
        stats = ctrl.stats
        assert stats.quarantines == 1
        assert stats.retries == 3
        assert stats.successes == 1
        # Copy 0 is skipped from now on: no further quarantine churn.
        assert ctrl.read_key() == SECRET
        assert stats.attempts == 5

    def test_retry_budget_exhaustion_reraises_last_error(self, design):
        ctrl = controller(design, hook=model_of(PoisonBank(0)),
                          policy=RetryPolicy(max_attempts=2,
                                             quarantine_after=50))
        with pytest.raises(DecodingFailure) as excinfo:
            ctrl.read_key()
        assert excinfo.value.bank_id == 0
        assert ctrl.stats.successes == 0
        assert not ctrl.quarantined_copies  # below the quarantine bar

    def test_all_copies_quarantined_is_exhaustion(self, design):
        poison = model_of(*(PoisonBank(i) for i in range(design.copies)))
        ctrl = controller(design, hook=poison,
                          policy=RetryPolicy(max_attempts=8 * design.copies,
                                             quarantine_after=2))
        with pytest.raises(DeviceWornOutError):
            ctrl.read_key()
        assert ctrl.is_exhausted
        assert len(ctrl.quarantined_copies) == design.copies
        assert all(not h.dead for h in ctrl.health)  # alive but untrusted
