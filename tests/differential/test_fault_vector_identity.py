"""Scalar-vs-native bit-identity of the batched fault pipeline.

Every injector's batched sites (``on_bank_actuate`` at the engine's
banks, ``on_shares_readout`` at the keystores) promise bit-identity to
its per-switch or per-share reference form, for every shipped injector
and for any attachment order - the RNG substream contract of
:mod:`repro.faults.injectors`.  This suite pins that promise end to end
against the test-side reference (:mod:`tests.differential._reference`:
object-mode banks that inject right after each switch's own actuation,
keystores that read one share at a time): whole trial records
(per-trial wear, outcomes, injection counts) must match
``run_fault_trial`` for

- each injector alone,
- mixed pipelines in every attachment order,
- the full six-injector mix, and
- a custom readout-only injector,

plus the hardware state arrays the trial leaves behind.  Every injector
``build_fault_model`` can build must have a reference form.
"""

import itertools

import numpy as np
import pytest

from repro.connection.resilient import ResilientAccessController, RetryPolicy
from repro.core.degradation import PAPER_CRITERIA
from repro.core.sizing import size_architecture
from repro.errors import CodingError, DeviceWornOutError
from repro.faults.campaign import (
    CAMPAIGN_SECRET,
    FaultCampaignConfig,
    build_fault_model,
    run_fault_trial,
)
from repro.faults.injectors import (
    FaultModel,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TransientMisfire,
)
from repro.sim.rng import make_rng
from tests.differential._reference import (
    SHARE_FORMS,
    SWITCH_FORMS,
    PerShareInjector,
    ReferenceController,
    bank_arrays,
    reference_fault_trial,
)


def _design(bound=40):
    return size_architecture(10.0, 8.0, bound, k_fraction=0.10,
                             criteria=PAPER_CRITERIA, window="fractional")


#: One config per shipped injector, exercising it alone at a rate high
#: enough that every trial actually injects.
SINGLE_INJECTOR_CONFIGS = {
    "misfire": FaultCampaignConfig(misfire_rate=0.05),
    "premature_stuck_open": FaultCampaignConfig(
        premature_stuck_open_rate=0.03),
    "stuck_closed": FaultCampaignConfig(stuck_closed_probability=0.05),
    "temperature": FaultCampaignConfig(temperature_c=85.0),
    "corruption": FaultCampaignConfig(corruption_rate=0.05),
    "timeout": FaultCampaignConfig(timeout_rate=0.03),
}


@pytest.mark.parametrize("name", sorted(SINGLE_INJECTOR_CONFIGS))
def test_single_injector_trial_records_identical(name):
    design = _design()
    config = SINGLE_INJECTOR_CONFIGS[name]
    for seed in range(3):
        scalar = reference_fault_trial(design, config, make_rng(seed))
        native = run_fault_trial(design, config, make_rng(seed))
        assert scalar == native, f"{name} seed {seed}"


def test_full_mix_trial_records_identical():
    design = _design()
    config = FaultCampaignConfig(misfire_rate=0.02,
                                 premature_stuck_open_rate=0.01,
                                 stuck_closed_probability=0.02,
                                 temperature_c=60.0,
                                 corruption_rate=0.02,
                                 timeout_rate=0.01)
    for seed in range(3):
        scalar = reference_fault_trial(design, config, make_rng(seed))
        native = run_fault_trial(design, config, make_rng(seed))
        assert scalar == native, f"seed {seed}"


def _drive(design, injectors, seed, controller_class):
    """Drive one controller to destruction; return outcomes + state."""
    rng = make_rng(seed)
    model = FaultModel(list(injectors), rng=make_rng(seed + 1))
    controller = controller_class(
        design, CAMPAIGN_SECRET, rng, fault_hook=model,
        policy=RetryPolicy(max_attempts=3, quarantine_after=2))
    outcomes = []
    for _ in range(design.copies * (design.t + 2) + design.t + 8):
        try:
            controller.read_key()
            outcomes.append("ok")
        except DeviceWornOutError:
            outcomes.append("worn")
            break
        except CodingError as exc:
            outcomes.append(f"coding:{type(exc).__name__}")
    return {
        "outcomes": outcomes,
        "injections": [inj.injections for inj in model.injectors],
        "streams": [s.bit_generator.state["state"] for s in model.streams],
        **bank_arrays(controller._banks),
        "stats": controller.stats,
    }


def _assert_same_drive(scalar, native):
    assert scalar["outcomes"] == native["outcomes"]
    assert scalar["injections"] == native["injections"]
    assert scalar["streams"] == native["streams"]
    for array in ("used", "lifetime", "bank_accesses", "bank_dead"):
        np.testing.assert_array_equal(scalar[array], native[array])
    assert scalar["stats"] == native["stats"]


#: An actuation injector, a persistent-conversion injector and a readout
#: injector: the three hook classes whose stage interleaving the
#: pipeline must reproduce in any order.
ORDER_INJECTORS = [
    lambda: TransientMisfire(0.03),
    lambda: StuckClosedConversion(0.03),
    lambda: ReadoutTimeout(0.02),
]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_mixed_pipeline_identical_in_every_attachment_order(order):
    design = _design(24)
    injectors = [ORDER_INJECTORS[i]() for i in order]
    scalar = _drive(design, injectors, 11, ReferenceController)
    injectors = [ORDER_INJECTORS[i]() for i in order]
    native = _drive(design, injectors, 11, ResilientAccessController)
    _assert_same_drive(scalar, native)


def test_readout_pair_identical_in_both_orders():
    design = _design(24)
    for order in ([ShareCorruption(0.05), ReadoutTimeout(0.03)],
                  [ReadoutTimeout(0.03), ShareCorruption(0.05)]):
        scalar = _drive(design, order, 5, ReferenceController)
        rebuilt = [type(inj)(inj.rate) for inj in order]
        native = _drive(design, rebuilt, 5, ResilientAccessController)
        _assert_same_drive(scalar, native)


class FlipFirstByte(PerShareInjector):
    """A user-defined readout-only injector that draws from its stream."""

    name = "flip-first-byte"

    def __init__(self, rate):
        super().__init__()
        self.rate = rate

    def on_share_readout(self, bank_id, index, data, rng):
        if rng.random() < self.rate:
            self.injections += 1
            return bytes([data[0] ^ 0x01]) + data[1:]
        return data


def test_custom_readout_only_injector_matches_reference():
    """A custom injector without ``on_bank_actuate`` runs natively:
    no actuation stage, per-share readout replayed by the batched
    site of :class:`PerShareInjector`, record for record equal to the
    reference."""
    design = _design(24)
    for make in (lambda: [FlipFirstByte(0.1)],
                 lambda: [FlipFirstByte(0.1), TransientMisfire(0.03),
                          ReadoutTimeout(0.02)]):
        scalar = _drive(design, make(), 7, ReferenceController)
        native = _drive(design, make(), 7, ResilientAccessController)
        _assert_same_drive(scalar, native)
        assert native["injections"][0] > 0


def test_every_buildable_injector_has_a_reference_form():
    """A new mechanism cannot ship without an identity reference."""
    config = FaultCampaignConfig(misfire_rate=0.1,
                                 premature_stuck_open_rate=0.1,
                                 stuck_closed_probability=0.1,
                                 temperature_c=85.0,
                                 corruption_rate=0.1,
                                 timeout_rate=0.1)
    kinds = [type(injector) for injector in
             build_fault_model(config, make_rng(0)).injectors]
    assert len(kinds) == 6
    assert {kind for kind in kinds
            if hasattr(kind, "on_bank_actuate")} == set(SWITCH_FORMS)
    assert {kind for kind in kinds
            if hasattr(kind, "on_shares_readout")} == set(SHARE_FORMS)
