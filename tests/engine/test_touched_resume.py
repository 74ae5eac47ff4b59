"""Closed-form resume from touched states, pinned against stepping.

``run_to_exhaustion`` on a hook-free state - pristine or not - must
finalize every array bit-identically to the stepped kernel, so restored
checkpoints and the service's post-restart replay can skip per-access
stepping.  Most states driven here are deliberately abused - partial
drives, external wear, forced failures, killed banks, advanced copies -
because that is exactly what a restored snapshot looks like; pristine
states of random shape go through the same closed form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.state import WearState

ARRAYS = ("lifetime", "used", "bank_accesses", "bank_dead", "current",
          "total_accesses")


def _assert_states_equal(a, b, context=""):
    for name in ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), (
            f"{name} diverged {context}")


def _clone(state):
    twin = WearState(state.lifetime.copy(), state.k)
    twin.used[:] = state.used
    twin.bank_accesses[:] = state.bank_accesses
    twin.bank_dead[:] = state.bank_dead
    twin.current[:] = state.current
    twin.total_accesses[:] = state.total_accesses
    return twin


def _touch(state, rng, steps):
    """Partially drive and externally abuse ``state`` in a seeded way."""
    for _ in range(steps):
        mask = rng.random(state.instances) < 0.7
        state.step_access(np.flatnonzero(mask))
    # External mutations a checkpoint restore can legally carry.
    for _ in range(state.instances):
        b = int(rng.integers(state.instances))
        c = int(rng.integers(state.copies))
        i = int(rng.integers(state.n))
        choice = rng.integers(4)
        if choice == 0:
            state.view(b, c, i).add_wear(int(rng.integers(1, 3)))
        elif choice == 1:
            state.view(b, c, i).force_fail()
        elif choice == 2:
            state.bank_dead[b, c] = True
        elif choice == 3 and state.current[b] < state.copies:
            state.current[b] += 1


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cap", [None, 0, 1, 5, 17, 1000])
@pytest.mark.parametrize("seed, touched", [
    (11, True), (12, True), (13, True),
    (21, False), (22, False), (23, False),
], ids=["11", "12", "13", "untouched-21", "untouched-22", "untouched-23"])
def test_touched_closed_form_matches_stepping(k, cap, seed, touched):
    """One closed form resumes any hook-free state: abused ones, and
    pristine ones of random shape that are neither stepped nor abused."""
    rng = np.random.default_rng(seed)
    shape = ((6, 3, 4) if touched else
             (int(rng.integers(1, 9)), int(rng.integers(1, 6)),
              int(rng.integers(k, 8))))
    lifetimes = rng.uniform(0.0, 7.0, size=shape)
    lifetimes[0, 0] = np.floor(lifetimes[0, 0])  # integer-lifetime bank
    state = WearState(lifetimes, k)
    if touched:
        _touch(state, rng, steps=int(rng.integers(0, 8)))
    else:
        assert state.is_pristine
    predicted = state.remaining_capacity()
    reference = _clone(state)
    served_closed = state.run_to_exhaustion(cap)
    served_stepped = reference._run_stepped(cap)
    assert np.array_equal(served_closed, served_stepped)
    _assert_states_equal(state, reference, f"(k={k}, cap={cap})")
    # The pure query, which the closed form no longer calls, predicts
    # what stepping serves.
    assert np.array_equal(served_stepped, predicted if cap is None
                          else np.minimum(predicted, cap))


def test_exhausted_instances_stay_untouched():
    state = WearState(np.full((2, 2, 2), 2.0), 1)
    state.run_to_exhaustion()
    snapshot = _clone(state)
    assert state.run_to_exhaustion().tolist() == [0, 0]
    assert state.run_to_exhaustion(5).tolist() == [0, 0]
    _assert_states_equal(state, snapshot)


def test_resume_after_partial_drive_serves_the_remainder():
    state = WearState(np.full((1, 2, 3), 4.0), 2)
    pristine_total = int(WearState(state.lifetime.copy(), 2)
                         .run_to_exhaustion()[0])
    first = int(state.run_to_exhaustion(3)[0])
    assert first == 3
    rest = int(state.run_to_exhaustion()[0])
    assert first + rest == pristine_total


def test_remaining_capacity_matches_actual_serves():
    rng = np.random.default_rng(44)
    lifetimes = rng.uniform(0.0, 6.0, size=(5, 3, 4))
    state = WearState(lifetimes, 2)
    _touch(state, rng, steps=4)
    predicted = state.remaining_capacity()
    served = state.run_to_exhaustion()
    assert np.array_equal(predicted, served)
    assert state.remaining_capacity().tolist() == [0] * 5


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), instances=st.integers(1, 7),
       copies=st.integers(1, 4), n=st.integers(1, 5), data=st.data())
def test_row_queries_equal_the_full_queries_indexed(seed, instances, copies,
                                                    n, data):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    state = WearState(rng.uniform(0.0, 6.0, size=(instances, copies, n)), k)
    _touch(state, rng, steps=int(rng.integers(0, 6)))
    row = st.integers(0, instances - 1)
    for b, c in data.draw(st.lists(st.tuples(row, st.integers(0, copies - 1)),
                                   max_size=4), label="dead banks"):
        state.bank_dead[b, c] = True
    state.current[data.draw(st.lists(row, max_size=2),
                            label="exhausted rows")] = copies
    rows = data.draw(st.one_of(
        row, st.slices(instances),
        st.lists(row, max_size=2 * instances).map(
            lambda r: np.array(r, dtype=np.int64))), label="rows")
    for query in (state.remaining_switch_closes,
                  state.remaining_bank_budgets, state.remaining_capacity):
        expected = query()[rows]
        got = query(rows)
        assert np.shape(got) == np.shape(expected), query.__name__
        assert np.array_equal(got, expected), query.__name__


def test_remaining_capacity_is_pure():
    state = WearState(np.full((2, 2, 2), 3.0), 1)
    state.step_access(np.arange(2))
    before = _clone(state)
    state.remaining_capacity()
    _assert_states_equal(state, before)


def test_step_record_reports_serving_copy_and_observed_row():
    lifetimes = np.array([[[2.0, 2.0], [5.0, 5.0]],
                          [[0.0, 0.0], [0.0, 0.0]]])
    state = WearState(lifetimes, 1)
    success, served_copy, observed = state.step_access(np.arange(2))
    assert success.tolist() == [True, False]
    assert served_copy.tolist() == [0, -1]
    assert observed[0].tolist() == [True, True]
    assert not observed[1].any()


def test_step_record_observed_comes_from_the_hook():
    class FirstOnly:
        def on_bank_actuate(self, state, instances, copies, closed):
            observed = np.zeros_like(closed)
            observed[:, 0] = closed[:, 0]
            return observed

    state = WearState(np.full((1, 1, 3), 5.0), 1, vector_hook=FirstOnly())
    success, served_copy, observed = state.step_access(np.arange(1))
    assert success[0]
    assert served_copy[0] == 0
    assert observed[0].tolist() == [True, False, False]
