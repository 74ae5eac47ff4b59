"""Tests for the fault injector taxonomy and hardware wiring."""

import numpy as np
import pytest

from repro.core.hardware import SimulatedBank, build_serial_copies
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import ConfigurationError
from repro.faults.injectors import (
    FaultModel,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)


def model_of(*injectors, seed=0):
    return FaultModel(injectors, rng=np.random.default_rng(seed))


def bank_of(*lifetimes, model=None):
    """A k = 1 bank over a one-row engine state with these lifetimes."""
    state = WearState(np.array([[lifetimes]], dtype=float), 1)
    return SimulatedBank(state, fault_hook=model)


def readout(model, data, bank_id=0, index=0):
    """One share read through the model's batched readout site."""
    return model.on_shares_readout(bank_id, [index], [data])[0]


class TestTransientMisfire:
    def test_rate_one_suppresses_every_closure(self):
        model = model_of(TransientMisfire(1.0))
        bank = bank_of(100, model=model)
        assert bank.access() == []
        assert model.total_injections == 1

    def test_rate_zero_is_transparent(self):
        model = model_of(TransientMisfire(0.0))
        bank = bank_of(100, model=model)
        assert bank.access() == [0]
        assert model.total_injections == 0

    def test_misfire_does_not_latch_a_healthy_bank_dead(self):
        """A transient glitch must not permanently condemn the bank."""
        injector = TransientMisfire(1.0)
        model = model_of(injector)
        bank = bank_of(100, model=model)
        assert bank.access() == []
        assert not bank.is_dead
        injector.rate = 0.0  # glitch clears
        assert bank.access() == [0]

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            TransientMisfire(1.5)


class TestPrematureStuckOpen:
    def test_kills_switch_permanently(self):
        model = model_of(PrematureStuckOpen(1.0))
        state = WearState(np.array([[[1000.0]]]), 1)
        bank = SimulatedBank(state, fault_hook=model)
        switch = bank.switches[0]
        assert bank.access() == []
        assert switch.is_failed
        # Dead stays dead even with injection disabled afterwards.
        bank2 = SimulatedBank(state)
        assert bank2.access() == []


class TestStuckClosedConversion:
    def test_converted_switch_conducts_forever(self):
        model = model_of(StuckClosedConversion(1.0))
        bank = bank_of(2, model=model)
        switch = bank.switches[0]
        for _ in range(20):
            assert bank.access() == [0]
        assert switch.is_failed  # physically dead, electrically alive

    def test_decision_is_sticky_per_switch(self):
        """The stuck/not-stuck draw happens once, at the switch's death."""
        injector = StuckClosedConversion(0.5)
        model = model_of(injector, seed=3)
        bank = bank_of(*[1] * 40, model=model)
        bank.access()  # consume the single lifetime
        first = bank.access()
        for _ in range(5):
            assert bank.access() == first

    def test_probability_zero_fails_secure(self):
        model = model_of(StuckClosedConversion(0.0))
        bank = bank_of(1, model=model)
        assert bank.access() == [0]
        assert bank.access() == []


class TestTemperatureDrift:
    def test_room_temperature_adds_no_wear(self):
        model = model_of(TemperatureDrift(25.0))
        bank = bank_of(10, model=model)
        switch = bank.switches[0]
        bank.access()
        assert switch.cycles_used == 1

    def test_heat_consumes_budget_faster(self):
        model = model_of(TemperatureDrift(500.0))
        bank = bank_of(100, model=model)
        served = 0
        while bank.access_succeeds():
            served += 1
            assert served < 101
        # 500 C scales lifetime by 2/21, so ~9-10 accesses instead of 100.
        assert served < 20

    def test_cold_never_extends_life(self):
        model = model_of(TemperatureDrift(-50.0))
        bank = bank_of(10, model=model)
        served = 0
        while bank.access_succeeds():
            served += 1
            assert served <= 10
        assert served == 10


class TestShareReadoutFaults:
    def test_corruption_flips_bits(self):
        model = model_of(ShareCorruption(1.0))
        out = readout(model, b"\x00" * 8)
        assert out != b"\x00" * 8
        assert len(out) == 8

    def test_timeout_returns_none_and_short_circuits(self):
        corruption = ShareCorruption(1.0)
        model = model_of(ReadoutTimeout(1.0), corruption)
        assert readout(model, b"data") is None
        assert corruption.injections == 0  # pipeline stopped at timeout

    def test_zero_rates_are_identity(self):
        model = model_of(ShareCorruption(0.0), ReadoutTimeout(0.0))
        assert readout(model, b"data", bank_id=3, index=1) == b"data"


class TestFaultModelPlumbing:
    def test_injection_counts_merge_by_name(self):
        a, b = TransientMisfire(1.0), TransientMisfire(1.0)
        model = model_of(a, b)
        bank = bank_of(100, model=model)
        bank.access()
        # First injector suppresses; second sees closed=False, no-op.
        assert model.injection_counts() == {"misfire": 1}

    def test_no_hook_paths_unchanged(self):
        """Banks without a hook behave exactly as before (baseline)."""
        rng = np.random.default_rng(0)
        device = WeibullDistribution(alpha=8.0, beta=8.0)
        baseline = build_serial_copies(device, 2, 5, 2,
                                       np.random.default_rng(42))
        hooked = build_serial_copies(device, 2, 5, 2,
                                     np.random.default_rng(42),
                                     fault_hook=None)
        assert baseline.count_successful_accesses(100) == \
            hooked.count_successful_accesses(100)
        assert rng is not None

    def test_fabrication_unaffected_by_fault_model(self):
        """Fault draws come from the model's own rng, never fabrication."""
        device = WeibullDistribution(alpha=8.0, beta=8.0)
        plain = build_serial_copies(device, 2, 5, 2,
                                    np.random.default_rng(7))
        faulty = build_serial_copies(device, 2, 5, 2,
                                     np.random.default_rng(7),
                                     fault_hook=model_of(
                                         TransientMisfire(0.3)))
        for bank_a, bank_b in zip(plain.banks, faulty.banks):
            assert [s.lifetime_cycles for s in bank_a.switches] == \
                [s.lifetime_cycles for s in bank_b.switches]
