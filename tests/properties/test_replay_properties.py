"""Property tests for trace replay: profile strategies + arm identity.

Hypothesis drives the replay through the awkward shapes the fixed-seed
differential suite cannot enumerate: profiles whose days draw zero
events, traces that exhaust the hardware mid-day, and truncation at an
arbitrary prefix.  Every property holds for both ``replay_trace`` and
the login-by-login reference (:mod:`tests.differential._reference`),
and the central one - report identity between the two - is itself a
property here.

The designs are tiny on purpose: the reference pays the real KDF per
login, so example budgets stay small.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degradation import PAPER_CRITERIA
from repro.core.sizing import size_architecture
from repro.sim.rng import make_rng
from repro.sim.timeline import UsageProfile
from repro.sim.traces import (
    EndState,
    EventKind,
    TraceEvent,
    generate_trace,
    replay_trace,
)
from tests.differential._reference import reference_replay_trace

_DESIGN_CACHE: dict = {}


def _design(bound):
    design = _DESIGN_CACHE.get(bound)
    if design is None:
        design = _DESIGN_CACHE[bound] = size_architecture(
            10.0, 8.0, bound, k_fraction=0.10, criteria=PAPER_CRITERIA,
            window="fractional")
    return design


#: Usage profiles skewed toward sparse days: small means make zero-event
#: days common, which is exactly the chunk-boundary shape the batched
#: arm must not mishandle.
profiles = st.builds(UsageProfile,
                     mean_daily=st.floats(min_value=0.2, max_value=4.0,
                                          allow_nan=False))

#: (profile, days, trace-seed, burst) - a full trace recipe.  Bursts
#: land mid-trace; size 0 disables them.
trace_recipes = st.tuples(
    profiles,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2 ** 16),
    st.integers(min_value=0, max_value=6),
)


def _trace_from_recipe(recipe):
    profile, days, seed, burst = recipe
    return generate_trace(profile, days, make_rng(seed), typo_rate=0.1,
                          attacker_burst_day=days // 2 if burst else None,
                          attacker_burst_size=burst)


def _reports(trace, bound, seed, fraction, modules=1):
    designs = [_design(bound)] * modules
    passcodes = [f"pc-{i}" for i in range(modules)]
    out = []
    for replay in (reference_replay_trace, replay_trace):
        rng = make_rng(seed)
        report = replay(designs, passcodes, b"property storage", trace,
                        rng, fraction)
        out.append((asdict(report), rng.bit_generator.state))
    return out


class TestReplayArmIdentity:
    @given(recipe=trace_recipes,
           bound=st.sampled_from([6, 10, 16]),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           fraction=st.sampled_from([0.0, 0.05, 0.4]),
           modules=st.integers(min_value=1, max_value=2))
    @settings(max_examples=12, deadline=None)
    def test_scalar_and_vectorized_agree(self, recipe, bound, seed,
                                         fraction, modules):
        """Report and final RNG state match for arbitrary profiles -
        including zero-event days and exhaustion mid-day."""
        trace = _trace_from_recipe(recipe)
        scalar, vector = _reports(trace, bound, seed, fraction, modules)
        assert scalar == vector

    @given(recipe=trace_recipes,
           cut=st.integers(min_value=0, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_truncated_trace_agrees(self, recipe, cut, seed):
        """Arm identity survives truncation at any prefix length."""
        trace = _trace_from_recipe(recipe)[:cut]
        scalar, vector = _reports(trace, 8, seed, 0.05)
        assert scalar == vector


class TestReplayInvariants:
    @given(recipe=trace_recipes,
           seed=st.integers(min_value=0, max_value=2 ** 16),
           replay=st.sampled_from([reference_replay_trace, replay_trace]))
    @settings(max_examples=10, deadline=None)
    def test_report_accounting_is_consistent(self, recipe, seed, replay):
        trace = _trace_from_recipe(recipe)
        report = replay([_design(8)], ["pc-0"], b"property storage",
                        trace, make_rng(seed), 0.05)
        served = (report.owner_logins + report.owner_typos
                  + report.attacker_attempts)
        assert served <= len(trace)
        if report.died_on_day is None:
            assert served == len(trace)
            assert report.end_state is EndState.SERVED_FULL_TRACE
        else:
            assert served < len(trace)
            last_day = trace[served].day
            assert report.died_on_day == last_day
        if trace:
            assert report.days_served <= trace[-1].day + 1
        else:
            assert report.days_served == 0

    @given(days=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           replay=st.sampled_from([reference_replay_trace, replay_trace]))
    @settings(max_examples=6, deadline=None)
    def test_exhaustion_mid_day_dies_on_a_served_day(self, days, seed,
                                                     replay):
        """A dense single day exhausts the tiny device partway through:
        the death day must be a day the trace actually contains."""
        trace = [TraceEvent(day, EventKind.OWNER_LOGIN)
                 for day in range(days) for _ in range(20)]
        report = replay([_design(6)], ["pc-0"], b"property storage",
                        trace, make_rng(seed), 0.05)
        assert report.died_on_day is not None
        assert 0 <= report.died_on_day < days
        assert report.end_state is EndState.WORN_OUT
