"""The vector hook surface: natives, pipeline, and the ``vector_hook_for``
rule, checked against the test-side scalar adapter.

The adapter (:class:`tests.differential._reference.ScalarHookAdapter`)
is bit-compatible with the object-mode hardware loop: driving a batched
state through ``ScalarHookAdapter(model)`` must replay the same
fault-RNG streams - and hence produce the same wear, deaths and access
bounds - as the loop consulting the same model per switch.  Every
native hook (and the composed pipeline) then has to match the adapter
bit for bit, which the parametrized identity tests here pin at the
engine level; whole-trial identity lives in ``tests/differential``.
"""

import numpy as np
import pytest

from repro.core.device import NEMSSwitch
from repro.core.hardware import SerialCopies, SimulatedBank
from repro.engine.hooks import (
    VectorFaultHook,
    VectorFaultPipeline,
    VectorPrematureStuckOpen,
    VectorStuckClosedConversion,
    VectorTemperatureDrift,
    VectorTransientMisfire,
    vector_hook_for,
)
from repro.engine.state import WearState
from repro.errors import ConfigurationError
from repro.faults.injectors import (
    FaultInjector,
    FaultModel,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)
from tests.differential._reference import ScalarHookAdapter


def _step_all(state):
    """One access to every instance; returns the per-instance success."""
    return state.step_access(np.arange(state.instances))[0]


def _fault_model(seed):
    return FaultModel([TransientMisfire(0.15),
                       StuckClosedConversion(0.5)], seed=seed)


def _scalar_drive(lifetimes_2d, k, model):
    banks = [SimulatedBank([NEMSSwitch(v) for v in row], k,
                           fault_hook=model)
             for row in lifetimes_2d]
    serial = SerialCopies(banks)
    served = serial.count_successful_accesses(200)
    used = np.array([[s.cycles_used for s in bank.switches]
                     for bank in serial.banks])
    dead = np.array([b.is_dead for b in serial.banks])
    return served, used, dead


def _assert_identical(reference, native, scalar_model, vector_model):
    """Final state, injection totals and stream positions all match."""
    for array in ("used", "lifetime", "bank_accesses", "bank_dead",
                  "current", "total_accesses"):
        assert np.array_equal(getattr(reference, array),
                              getattr(native, array)), array
    assert (scalar_model.total_injections
            == vector_model.total_injections)
    # Both arms consumed the same number of draws from every injector
    # substream - including rate-0 short circuits, which consume none.
    for scalar_stream, vector_stream in zip(scalar_model.streams,
                                            vector_model.streams):
        assert (scalar_stream.bit_generator.state
                == vector_stream.bit_generator.state)


class TestScalarHookAdapter:
    @pytest.mark.parametrize("k", [1, 2])
    def test_bit_compatible_with_object_mode_loop(self, k):
        lifetimes = np.random.default_rng(5).uniform(0.0, 6.0,
                                                     size=(1, 3, 4))
        engine = WearState(lifetimes.copy(), k,
                           vector_hook=ScalarHookAdapter(_fault_model(9)))
        engine_served = engine.run_to_exhaustion(200)
        served, used, dead = _scalar_drive(lifetimes[0], k,
                                           _fault_model(9))
        assert engine_served[0] == served
        assert np.array_equal(engine.used[0], used)
        assert np.array_equal(engine.bank_dead[0], dead)

    def test_adapter_is_a_vector_fault_hook(self):
        adapter = ScalarHookAdapter(_fault_model(0))
        assert isinstance(adapter, VectorFaultHook)

    def test_observed_matrix_shape(self):
        state = WearState(np.full((2, 1, 3), 4.0), 1)
        adapter = ScalarHookAdapter(_fault_model(1))
        closed = np.ones((2, 3), dtype=bool)
        observed = adapter.on_bank_actuate(
            state, np.array([0, 1]), np.array([0, 0]), closed)
        assert observed.shape == closed.shape
        assert observed.dtype == np.bool_


def _native_vs_adapter(injectors_factory, k, seed=77, lifetimes_seed=21,
                       max_accesses=150):
    """Drive adapter and native arms over identical state; return both."""
    lifetimes = np.random.default_rng(lifetimes_seed).uniform(
        0.0, 6.0, size=(3, 3, 4))
    scalar_model = FaultModel(injectors_factory(), seed=seed)
    vector_model = FaultModel(injectors_factory(), seed=seed)
    reference = WearState(lifetimes.copy(), k,
                          vector_hook=ScalarHookAdapter(scalar_model))
    native_hook = vector_hook_for(vector_model)
    assert not isinstance(native_hook, ScalarHookAdapter)
    native = WearState(lifetimes.copy(), k, vector_hook=native_hook)
    served_ref = reference.run_to_exhaustion(max_accesses)
    served_native = native.run_to_exhaustion(max_accesses)
    assert np.array_equal(served_ref, served_native)
    _assert_identical(reference, native, scalar_model, vector_model)
    return scalar_model, vector_model


class TestVectorTransientMisfire:
    """The native batched misfire must replay the scalar fault-RNG stream.

    The scalar injector draws one uniform per closed switch in
    instance-major, switch-index order; the vector implementation draws
    one batch over the same positions.  PCG64 guarantees the streams
    are equal, so final state, served counts and injection totals must
    all match bit for bit.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_bit_identical_to_scalar_adapter(self, k, rate):
        _native_vs_adapter(lambda: [TransientMisfire(rate)], k)

    def test_is_a_vector_fault_hook(self):
        model = FaultModel([TransientMisfire(0.1)], seed=0)
        hook = VectorTransientMisfire(model.injectors[0], model.streams[0])
        assert isinstance(hook, VectorFaultHook)


class TestVectorPrematureStuckOpen:
    """Native premature-fracture: one draw per *live* switch, row-major.

    A hit must collapse the lifetime to the wear already spent
    (``force_fail``) and suppress this round's observation - and a
    switch already failed must not consume a draw.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.02, 0.2, 1.0])
    def test_bit_identical_to_scalar_adapter(self, k, rate):
        _native_vs_adapter(lambda: [PrematureStuckOpen(rate)], k)

    def test_rate_one_kills_everything_in_one_round(self):
        model = FaultModel([PrematureStuckOpen(1.0)], seed=4)
        state = WearState(np.full((1, 2, 3), 9.0), 1,
                          vector_hook=vector_hook_for(model))
        # The failed access falls over through both copies; every live
        # switch of each actuated bank fractures.
        assert not _step_all(state)[0]
        assert model.injectors[0].injections == 6


class TestVectorStuckClosedConversion:
    """The native stuck-closed hook must replay the scalar draw order.

    The scalar injector decides each newly-dead switch's stickiness
    with one uniform, in instance-major, switch-index order - exactly
    the row-major order of ``np.nonzero`` over the candidate matrix -
    and draws nothing at all when the probability is zero.  The vector
    implementation must consume the identical stream.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("probability", [0.0, 0.3, 0.7, 1.0])
    def test_bit_identical_to_scalar_adapter(self, k, probability):
        _native_vs_adapter(lambda: [StuckClosedConversion(probability)], k,
                           seed=55, lifetimes_seed=13)

    def test_conversion_is_sticky_across_rounds(self):
        # One switch, lifetime 1, probability 1: dies after the first
        # access and reads closed forever after.
        model = FaultModel([StuckClosedConversion(1.0)], seed=2)
        state = WearState(np.ones((1, 1, 1)), 1,
                          vector_hook=vector_hook_for(model))
        for _ in range(5):
            assert _step_all(state)[0]
        assert state.total_accesses[0] == 5
        assert model.injectors[0].injections == 1

    def test_is_a_vector_fault_hook(self):
        model = FaultModel([StuckClosedConversion(0.5)], seed=0)
        hook = VectorStuckClosedConversion(model.injectors[0],
                                           model.streams[0])
        assert isinstance(hook, VectorFaultHook)


class TestVectorTemperatureDrift:
    """Native drift: whole cycles deterministic, fraction one draw/live.

    At 25C the injector is inert and must consume no draws; hotter
    temperatures burn hidden wear without changing observations.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("temperature_c", [25.0, 40.0, 85.0, 125.0])
    def test_bit_identical_to_scalar_adapter(self, k, temperature_c):
        _native_vs_adapter(lambda: [TemperatureDrift(temperature_c)], k)

    def test_drift_never_changes_observations(self):
        model = FaultModel([TemperatureDrift(85.0)], seed=6)
        hook = vector_hook_for(model)
        state = WearState(np.full((1, 1, 3), 50.0), 1)
        closed = np.array([[True, True, False]])
        observed = hook.on_bank_actuate(state, np.array([0]),
                                        np.array([0]), closed)
        assert np.array_equal(observed, closed)


class TestReadoutOnlyNatives:
    """Corruption/timeout have no actuation stage: their native batched
    form is ``on_shares_readout``, so the engine never calls them."""

    @pytest.mark.parametrize("factory", [
        lambda: ShareCorruption(0.5), lambda: ReadoutTimeout(0.5)])
    def test_passthrough_and_no_draws(self, factory):
        assert vector_hook_for(FaultModel([factory()], seed=8)) is None
        # Behind an actuation injector the readout injector adds no
        # stage, and stepping the engine leaves its stream untouched.
        model = FaultModel([TransientMisfire(0.5), factory()], seed=8)
        hook = vector_hook_for(model)
        assert isinstance(hook, VectorTransientMisfire)
        state = WearState(np.full((1, 1, 3), 5.0), 1, vector_hook=hook)
        before = model.streams[1].bit_generator.state
        for _ in range(3):
            _step_all(state)
        assert model.streams[1].bit_generator.state == before
        assert model.injectors[1].injections == 0


class TestVectorFaultPipeline:
    """Mixed-injector models compose natives stage-major, bit-identically."""

    FULL_MIX = [
        lambda: [TransientMisfire(0.1), PrematureStuckOpen(0.02),
                 StuckClosedConversion(0.5), TemperatureDrift(60.0)],
        lambda: [TransientMisfire(0.1), StuckClosedConversion(0.7)],
        lambda: [PrematureStuckOpen(0.05), TemperatureDrift(85.0),
                 TransientMisfire(0.2)],
        lambda: [TransientMisfire(0.1), PrematureStuckOpen(0.02),
                 StuckClosedConversion(0.5), TemperatureDrift(60.0),
                 ShareCorruption(0.3), ReadoutTimeout(0.2)],
    ]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("factory", FULL_MIX)
    def test_mixed_pipeline_bit_identical_to_adapter(self, k, factory):
        _native_vs_adapter(factory, k)

    def test_mixed_pipeline_goes_native(self):
        model = FaultModel([TransientMisfire(0.2),
                            StuckClosedConversion(0.5)], seed=3)
        hook = vector_hook_for(model)
        assert isinstance(hook, VectorFaultPipeline)
        kinds = [type(h) for h in hook.hooks]
        assert kinds == [VectorTransientMisfire, VectorStuckClosedConversion]
        # Each stage holds its injector's dedicated substream.
        assert hook.hooks[0].rng is model.streams[0]
        assert hook.hooks[1].rng is model.streams[1]


class TestVectorHookFor:
    def test_none_stays_none(self):
        assert vector_hook_for(None) is None
        assert vector_hook_for(FaultModel([], seed=3)) is None

    def test_lone_misfire_goes_native(self):
        model = FaultModel([TransientMisfire(0.2)], seed=3)
        hook = vector_hook_for(model)
        assert isinstance(hook, VectorTransientMisfire)
        assert hook.injector is model.injectors[0]
        assert hook.rng is model.streams[0]

    def test_lone_stuck_closed_goes_native(self):
        model = FaultModel([StuckClosedConversion(0.4)], seed=3)
        hook = vector_hook_for(model)
        assert isinstance(hook, VectorStuckClosedConversion)
        assert hook.injector is model.injectors[0]
        assert hook.rng is model.streams[0]

    def test_every_shipped_injector_has_a_native(self):
        model = FaultModel([TransientMisfire(0.1), PrematureStuckOpen(0.1),
                            StuckClosedConversion(0.1),
                            TemperatureDrift(60.0), ShareCorruption(0.1),
                            ReadoutTimeout(0.1)], seed=3)
        hook = vector_hook_for(model)
        # The four actuation injectors get engine stages, each on its
        # own substream; the two readout injectors batch through their
        # own on_shares_readout instead.
        assert isinstance(hook, VectorFaultPipeline)
        assert [type(h) for h in hook.hooks] == [
            VectorTransientMisfire, VectorPrematureStuckOpen,
            VectorStuckClosedConversion, VectorTemperatureDrift]
        assert [h.rng for h in hook.hooks] == model.streams[:4]
        for readout in (ShareCorruption, ReadoutTimeout):
            assert (readout.on_shares_readout
                    is not FaultInjector.on_shares_readout)

    def test_unknown_actuation_injector_is_rejected(self):
        class CustomInjector(FaultInjector):
            name = "custom"

            def on_switch_actuate(self, switch, closed, rng):
                return closed

        model = FaultModel([TransientMisfire(0.2), CustomInjector()],
                           seed=3)
        with pytest.raises(ConfigurationError, match="CustomInjector"):
            vector_hook_for(model)

    def test_non_model_hook_is_rejected(self):
        class Custom:
            def on_switch_actuate(self, switch, closed):
                return closed

            def __repr__(self):
                return "Custom()"

        with pytest.raises(ConfigurationError, match=r"Custom\(\)"):
            vector_hook_for(Custom())


class TestVectorHookSite:
    def test_hook_output_decides_service_but_not_the_dead_latch(self):
        class AllOpen:
            def on_bank_actuate(self, state, instances, copies, closed):
                return np.zeros_like(closed)

        # Healthy bank, hook reports nothing closed: the access falls
        # over, but the physically-alive bank must NOT latch dead.
        state = WearState(np.full((1, 2, 2), 9.0), 1, vector_hook=AllOpen())
        success = _step_all(state)
        assert not success[0]
        assert not state.bank_dead.any()
        assert state.exhausted[0]  # fell over past both copies

    def test_stuck_closed_hook_keeps_a_dead_bank_serving(self):
        class AllClosed:
            def on_bank_actuate(self, state, instances, copies, closed):
                return np.ones_like(closed)

        # Worn-out bank, hook reports closures: serves via the hook, and
        # the physical dead state must not stop it (ceiling violation).
        state = WearState(np.zeros((1, 1, 2)), 1, vector_hook=AllClosed())
        assert _step_all(state)[0]
        assert _step_all(state)[0]
        assert state.total_accesses[0] == 2
