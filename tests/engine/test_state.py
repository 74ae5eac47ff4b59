"""Unit tests for the struct-of-arrays wear-state engine.

The load-bearing claims: the batched kernels replicate the scalar
object layer's semantics switch for switch, and the closed-form
``run_to_exhaustion`` finalizes *every* state array exactly as a
stepped drive would.
"""

import numpy as np
import pytest

from repro.core.device import NEMSSwitch
from repro.core.hardware import SerialCopies
from repro.core.variation import LognormalVariation
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import ConfigurationError
from tests.differential._reference import ObjectBank

MODEL = WeibullDistribution(alpha=9.0, beta=6.0)

# Lifetimes exercising every per-switch edge: zero, sub-one fractional,
# exact integer, fractional above one.
EDGE_LIFETIMES = [0.0, 0.4, 1.0, 2.0, 2.5, 3.0, 7.9]


def _object_serial(lifetimes_2d, k):
    """Object-mode SerialCopies over explicit per-copy lifetime rows."""
    banks = []
    for row in lifetimes_2d:
        switches = [NEMSSwitch(value) for value in row]
        banks.append(ObjectBank(switches, k))
    return SerialCopies(banks)


def _drive_scalar(lifetimes_2d, k, max_accesses=None):
    """Drive the scalar reference to destruction; return full final state."""
    serial = _object_serial(lifetimes_2d, k)
    served = serial.count_successful_accesses(max_accesses)
    used = np.array([[s.cycles_used for s in bank.switches]
                     for bank in serial.banks])
    return {
        "served": served,
        "used": used,
        "bank_accesses": np.array([b.accesses for b in serial.banks]),
        "bank_dead": np.array([b.is_dead for b in serial.banks]),
        "current": serial.current_index,
        "total_accesses": serial.total_accesses,
    }


def _lifetime_grid(rng, copies=3, n=5, instances=4):
    lifetimes = rng.uniform(0.0, 9.0, size=(instances, copies, n))
    # Pin the edge cases into instance 0.
    flat = np.array(EDGE_LIFETIMES[:n])
    lifetimes[0, 0, :len(flat)] = flat
    lifetimes[0, 1] = np.floor(lifetimes[0, 1])  # all-integer bank
    return lifetimes


class TestConstruction:
    def test_requires_3d_lifetimes(self):
        with pytest.raises(ConfigurationError):
            WearState(np.ones((2, 3)), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            WearState(np.ones((1, 2, 4)), 5)
        with pytest.raises(ConfigurationError):
            WearState(np.ones((1, 2, 4)), 0)

    def test_rejects_negative_lifetimes(self):
        lifetimes = np.ones((1, 2, 3))
        lifetimes[0, 1, 2] = -0.5
        with pytest.raises(ConfigurationError):
            WearState(lifetimes, 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 2.0 ** 63, 1e300])
    def test_rejects_lifetimes_it_cannot_count(self, bad):
        lifetimes = np.ones((1, 2, 3))
        lifetimes[0, 1, 2] = bad
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*63\)"):
            WearState(lifetimes, 1)

    def test_counts_the_largest_lifetime_below_2_to_the_63(self):
        largest = np.nextafter(2.0 ** 63, 0.0)
        state = WearState(np.full((1, 1, 2), largest), 1)
        assert state.switch_budgets().tolist() == [[[int(largest)] * 2]]

    def test_from_lifetimes_promotes_2d(self):
        state = WearState.from_lifetimes(np.ones((2, 4)), 2)
        assert (state.instances, state.copies, state.n) == (1, 2, 4)
        assert state.device_count == 8

    def test_pristine_until_touched(self, rng):
        state = WearState.fabricate(MODEL, 2, 2, 3, 1, rng)
        assert state.is_pristine
        state.step_access(np.arange(state.instances))
        assert not state.is_pristine


class TestFabricationBitIdentity:
    def test_batched_fabricate_matches_scalar_batches(self):
        seed = 777
        batched = WearState.fabricate(
            MODEL, 3, 4, 6, 2, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for b in range(3):
            for c in range(4):
                expected = [s.lifetime_cycles for s in
                            NEMSSwitch.fabricate_batch(MODEL, 6, rng)]
                assert batched.lifetime[b, c].tolist() == expected

    def test_variation_fabricate_matches_scalar_batches(self):
        seed = 778
        variation = LognormalVariation(sigma_alpha=0.05, sigma_beta=0.02)
        batched = WearState.fabricate(
            MODEL, 2, 3, 5, 1, np.random.default_rng(seed),
            variation=variation)
        rng = np.random.default_rng(seed)
        for b in range(2):
            for c in range(3):
                expected = [s.lifetime_cycles for s in
                            NEMSSwitch.fabricate_batch(MODEL, 5, rng,
                                                       variation)]
                assert batched.lifetime[b, c].tolist() == expected


class TestBudgets:
    def test_switch_and_saturated_budgets(self):
        lifetimes = np.array([[EDGE_LIFETIMES[:6] + [3.2]]])
        state = WearState(lifetimes, 1)
        assert state.switch_budgets()[0, 0].tolist() == [0, 0, 1, 2, 2, 3, 3]
        # Fractional lifetimes admit one extra counted-but-open cycle.
        assert state.saturated_wear()[0, 0].tolist() == [0, 1, 1, 2, 3, 3, 4]

    def test_bank_budget_is_kth_largest(self):
        lifetimes = np.array([[[5.9, 2.1, 7.0, 1.0]]])
        for k, expected in ((1, 7), (2, 5), (3, 2), (4, 1)):
            assert WearState(lifetimes, k).bank_budgets()[0, 0] == expected


class TestSteppedVsScalar:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_step_access_matches_object_drive(self, k):
        rng = np.random.default_rng(101)
        lifetimes = _lifetime_grid(rng)
        state = WearState(lifetimes.copy(), k)
        engine_served = state._run_stepped(None)
        for b in range(state.instances):
            scalar = _drive_scalar(lifetimes[b], k)
            assert engine_served[b] == scalar["served"]
            assert np.array_equal(state.used[b], scalar["used"])
            assert np.array_equal(state.bank_accesses[b],
                                  scalar["bank_accesses"])
            assert np.array_equal(state.bank_dead[b], scalar["bank_dead"])
            assert state.current[b] == scalar["current"]
            assert state.total_accesses[b] == scalar["total_accesses"]

    def test_mask_limits_the_step_to_selected_instances(self):
        state = WearState(np.full((3, 1, 2), 5.0), 1)
        mask = np.array([True, False, True])
        success = np.zeros(3, dtype=bool)
        success[mask] = state.step_access(np.flatnonzero(mask))[0]
        assert success.tolist() == [True, False, True]
        assert state.total_accesses.tolist() == [1, 0, 1]
        assert state.used[1].sum() == 0


class TestStepRows:
    ARRAYS = ("lifetime", "used", "bank_accesses", "bank_dead", "current",
              "total_accesses")

    @pytest.mark.parametrize("rows", [[0, 0], [2, 1, 2],
                                      np.array([0, 2, 1, 2], dtype=np.int32),
                                      [-1], [3], [[0, 1]],
                                      [True, False, True], [0.5]],
                             ids=["repeat", "repeat-later", "repeat-int32",
                                  "negative", "past-end", "2-d", "bool-mask",
                                  "float"])
    def test_bad_rows_raise_before_any_array_changes(self, rows):
        state = WearState(np.full((3, 2, 2), 5.0), 1)
        state.step_access(np.array([1]))
        before = {name: getattr(state, name).copy() for name in self.ARRAYS}
        with pytest.raises(ConfigurationError):
            state.step_access(np.array(rows))
        for name, value in before.items():
            assert np.array_equal(getattr(state, name), value), name

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_other_integer_dtypes_step_as_int64(self, dtype):
        lifetimes = np.random.default_rng(5).uniform(0.5, 4.0, (6, 3, 4))
        reference = WearState(lifetimes.copy(), 2)
        state = WearState(lifetimes.copy(), 2)
        for rows in ([4, 0, 5], [5], [1, 2, 3, 0, 4], [3, 5, 2]) * 3:
            expected = reference.step_access(np.array(rows, dtype=np.int64))
            got = state.step_access(np.array(rows, dtype=dtype))
            for want, have in zip(expected, got):
                assert want.dtype == have.dtype
                assert np.array_equal(want, have)
            for name in self.ARRAYS:
                assert np.array_equal(getattr(state, name),
                                      getattr(reference, name)), name

    def test_results_and_hook_follow_the_given_row_order(self):
        seen = []

        class Spy:
            def on_bank_actuate(self, state, instances, copies, closed):
                seen.append(instances.tolist())
                return closed

        lifetimes = np.full((3, 2, 2), 5.0)
        lifetimes[1, 0] = 0.0  # row 1 falls over to its second copy
        state = WearState(lifetimes, 1, vector_hook=Spy())
        success, served_copy, observed = state.step_access(
            np.array([2, 1, 0]))
        assert seen == [[2, 1, 0], [1]]
        assert success.tolist() == [True, True, True]
        assert served_copy.tolist() == [0, 1, 0]
        assert observed.all()

    def test_empty_rows_touch_nothing(self):
        state = WearState(np.full((2, 1, 2), 5.0), 1)
        success, served_copy, observed = state.step_access(
            np.array([], dtype=np.int64))
        assert success.shape == served_copy.shape == (0,)
        assert observed.shape == (0, 2)
        assert state.is_pristine


class TestClosedFormVsStepped:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("cap", [None, 0, 1, 7, 23, 1000])
    def test_closed_form_finalizes_every_array(self, k, cap):
        rng = np.random.default_rng(202)
        lifetimes = _lifetime_grid(rng, copies=3, n=5, instances=5)
        closed_form = WearState(lifetimes.copy(), k)
        stepped = WearState(lifetimes.copy(), k)
        served_closed = closed_form.run_to_exhaustion(cap)
        served_stepped = stepped._run_stepped(cap)
        assert np.array_equal(served_closed, served_stepped)
        for array in ("used", "bank_accesses", "bank_dead", "current",
                      "total_accesses"):
            assert np.array_equal(getattr(closed_form, array),
                                  getattr(stepped, array)), array

    def test_touched_state_falls_back_to_stepped(self):
        lifetimes = np.full((2, 2, 3), 4.0)
        state = WearState(lifetimes, 1)
        state.step_access(np.arange(2))  # no longer pristine
        reference = WearState(lifetimes.copy(), 1)
        reference._run_stepped(None)
        state.run_to_exhaustion()
        assert np.array_equal(state.used, reference.used)
        assert np.array_equal(state.total_accesses,
                              reference.total_accesses)

    def test_rejects_negative_cap(self):
        state = WearState(np.ones((1, 1, 1)), 1)
        with pytest.raises(ConfigurationError):
            state.run_to_exhaustion(-1)

    def test_exhausted_mask_and_idempotence(self):
        state = WearState(np.full((2, 2, 2), 1.0), 1)
        served = state.run_to_exhaustion()
        assert served.tolist() == [2, 2]
        assert state.exhausted.all()
        # Driving an exhausted state again serves nothing.
        assert state.run_to_exhaustion().tolist() == [0, 0]
