"""The engine's fault-hook site: every injector's batched
``on_bank_actuate``, alone and composed by :class:`FaultModel`, checked
against the test-side per-switch reference.

The adapter (:class:`tests.differential._reference.ScalarHookAdapter`)
is bit-compatible with the object-mode hardware loop: driving a batched
state through ``ScalarHookAdapter(model)`` must replay the same
fault-RNG streams - and hence produce the same wear, deaths and access
bounds - as the loop consulting the same model per switch.  A
:class:`FaultModel` hung on the state (each injector's batched site,
stage-major) then has to match the adapter bit for bit, which the
parametrized identity tests here pin at the engine level; whole-trial
identity lives in ``tests/differential``.
"""

import numpy as np
import pytest

from repro.core.device import NEMSSwitch
from repro.core.hardware import SerialCopies
from repro.engine.hooks import VectorFaultHook
from repro.engine.state import WearState
from repro.faults.hooks import FaultHook
from repro.faults.injectors import (
    FaultModel,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)
from tests.differential._reference import (
    ObjectBank,
    PerSwitchModel,
    ScalarHookAdapter,
)


def _step_all(state):
    """One access to every instance; returns the per-instance success."""
    return state.step_access(np.arange(state.instances))[0]


def _fault_model(seed):
    return FaultModel([TransientMisfire(0.15),
                       StuckClosedConversion(0.5)], seed=seed)


def _scalar_drive(lifetimes_2d, k, model):
    hook = PerSwitchModel(model)
    banks = [ObjectBank([NEMSSwitch(v) for v in row], k, fault_hook=hook)
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
    native = WearState(lifetimes.copy(), k, vector_hook=vector_model)
    served_ref = reference.run_to_exhaustion(max_accesses)
    served_native = native.run_to_exhaustion(max_accesses)
    assert np.array_equal(served_ref, served_native)
    _assert_identical(reference, native, scalar_model, vector_model)
    return scalar_model, vector_model


class TestVectorTransientMisfire:
    """Misfire's batched site must replay the per-switch fault-RNG stream.

    The per-switch form draws one uniform per closed switch in
    instance-major, switch-index order; the batched site draws one batch
    over the same positions.  PCG64 guarantees the streams are equal,
    so final state, served counts and injection totals must all match
    bit for bit.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_bit_identical_to_scalar_adapter(self, k, rate):
        _native_vs_adapter(lambda: [TransientMisfire(rate)], k)

    def test_is_a_vector_fault_hook(self):
        # The model is the hook the engine and the keystores call.
        model = FaultModel([TransientMisfire(0.1)], seed=0)
        assert isinstance(model, VectorFaultHook)
        assert isinstance(model, FaultHook)


class TestVectorPrematureStuckOpen:
    """Batched premature fracture: one draw per *live* switch, row-major.

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
        state = WearState(np.full((1, 2, 3), 9.0), 1, vector_hook=model)
        # The failed access falls over through both copies; every live
        # switch of each actuated bank fractures.
        assert not _step_all(state)[0]
        assert model.injectors[0].injections == 6


class TestVectorStuckClosedConversion:
    """The batched stuck-closed site must replay the per-switch draw order.

    The per-switch form decides each newly-dead switch's stickiness
    with one uniform, in instance-major, switch-index order - exactly
    the row-major order of ``np.nonzero`` over the candidate matrix -
    and draws nothing at all when the probability is zero.  The batched
    site must consume the identical stream.
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
        state = WearState(np.ones((1, 1, 1)), 1, vector_hook=model)
        for _ in range(5):
            assert _step_all(state)[0]
        assert state.total_accesses[0] == 5
        assert model.injectors[0].injections == 1

    def test_is_a_vector_fault_hook(self):
        # The model holding the stuck-closed injector is the hook the
        # engine and the banks call.
        model = FaultModel([StuckClosedConversion(0.5)], seed=0)
        assert isinstance(model, VectorFaultHook)
        assert isinstance(model, FaultHook)


class TestVectorTemperatureDrift:
    """Batched drift: whole cycles deterministic, fraction one draw/live.

    At 25C the injector is inert and must consume no draws; hotter
    temperatures burn hidden wear without changing observations.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("temperature_c", [25.0, 40.0, 85.0, 125.0])
    def test_bit_identical_to_scalar_adapter(self, k, temperature_c):
        _native_vs_adapter(lambda: [TemperatureDrift(temperature_c)], k)

    def test_drift_never_changes_observations(self):
        model = FaultModel([TemperatureDrift(85.0)], seed=6)
        state = WearState(np.full((1, 1, 3), 50.0), 1)
        closed = np.array([[True, True, False]])
        observed = model.on_bank_actuate(state, np.array([0]),
                                         np.array([0]), closed)
        assert np.array_equal(observed, closed)


class TestReadoutOnlyNatives:
    """Corruption/timeout have no actuation site: their batched form is
    ``on_shares_readout``, so the engine never calls them."""

    @pytest.mark.parametrize("factory", [
        lambda: ShareCorruption(0.5), lambda: ReadoutTimeout(0.5)])
    def test_passthrough_and_no_draws(self, factory):
        # Alone, the readout injector gives the model no actuation
        # stage: the observed matrix is the physical one, as given.
        model = FaultModel([factory()], seed=8)
        state = WearState(np.full((1, 1, 3), 5.0), 1)
        closed = np.array([[True, False, True]])
        assert model.on_bank_actuate(state, np.array([0]), np.array([0]),
                                     closed) is closed
        # Behind an actuation injector the readout injector adds no
        # stage, and stepping the engine leaves its stream untouched.
        model = FaultModel([TransientMisfire(0.5), factory()], seed=8)
        state = WearState(np.full((1, 1, 3), 5.0), 1, vector_hook=model)
        before = model.streams[1].bit_generator.state
        for _ in range(3):
            _step_all(state)
        assert model.streams[1].bit_generator.state == before
        assert model.injectors[1].injections == 0


class TestVectorFaultPipeline:
    """Mixed-injector models run their sites stage-major, bit-identically."""

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
