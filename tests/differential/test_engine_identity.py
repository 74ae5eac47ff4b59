"""Bit-identity of the batched engine against the scalar object layer.

``simulate_access_bounds_hardware`` now fabricates and steps whole
chunks of trials through one struct-of-arrays
:class:`~repro.engine.state.WearState`.  This suite pins the refactor's
core promise: for every design on the seeded grid the batched path
returns access bounds *bit-identical* to driving one
:class:`~repro.core.hardware.SerialCopies` of object-mode banks
(:class:`tests.differential._reference.ObjectBank`) per trial (the
pre-engine implementation, transcribed verbatim below) - for any chunk
size, with and without an access cap, and under process variation.
"""

import numpy as np
import pytest

from repro.core.degradation import PAPER_CRITERIA
from repro.core.device import NEMSSwitch
from repro.core.hardware import SerialCopies
from repro.core.sizing import size_architecture
from repro.core.variation import LognormalVariation
from repro.sim.montecarlo import simulate_access_bounds_hardware
from repro.sim.rng import make_rng
from tests.differential._reference import ObjectBank

TRIALS = 40

#: (alpha, beta, access_bound) - the same seeded grid the statistical
#: differential suite uses.
DESIGN_GRID = [
    (10.0, 8.0, 40),
    (9.0, 8.0, 30),
    (10.0, 5.0, 40),
    (12.0, 10.0, 60),
]


def _design(alpha, beta, bound):
    return size_architecture(alpha, beta, bound, k_fraction=0.10,
                             criteria=PAPER_CRITERIA, window="fractional")


def _scalar_reference(design, trials, rng, variation=None,
                      max_accesses=None):
    """The pre-engine hardware path: one object graph per trial."""
    bounds = np.empty(trials, dtype=np.int64)
    for index in range(trials):
        banks = []
        for _ in range(design.copies):
            switches = NEMSSwitch.fabricate_batch(design.device, design.n,
                                                  rng, variation)
            banks.append(ObjectBank(switches, design.k))
        bounds[index] = SerialCopies(banks).count_successful_accesses(
            max_accesses)
    return bounds


@pytest.mark.parametrize("alpha,beta,bound", DESIGN_GRID)
def test_batched_path_is_bit_identical_to_scalar(alpha, beta, bound):
    design = _design(alpha, beta, bound)
    seed = hash((alpha, beta, bound)) % (2 ** 31)
    expected = _scalar_reference(design, TRIALS, make_rng(seed))
    batched = simulate_access_bounds_hardware(design, TRIALS,
                                              make_rng(seed))
    assert np.array_equal(batched, expected)


@pytest.mark.parametrize("chunk_cells", [1, 517, 4_000_000])
def test_identity_holds_for_any_chunk_size(chunk_cells):
    # Chunking only changes how many instances share one state batch;
    # the fabrication stream and results must not move.
    design = _design(10.0, 8.0, 40)
    expected = _scalar_reference(design, TRIALS, make_rng(11))
    batched = simulate_access_bounds_hardware(
        design, TRIALS, make_rng(11), max_copies_per_chunk=chunk_cells)
    assert np.array_equal(batched, expected)


def test_identity_holds_under_an_access_cap():
    design = _design(9.0, 8.0, 30)
    expected = _scalar_reference(design, TRIALS, make_rng(21),
                                 max_accesses=37)
    batched = simulate_access_bounds_hardware(design, TRIALS, make_rng(21),
                                              max_accesses=37)
    assert np.array_equal(batched, expected)
    assert batched.max() <= 37


def test_identity_holds_under_process_variation():
    design = _design(10.0, 8.0, 40)
    variation = LognormalVariation(sigma_alpha=0.05, sigma_beta=0.02)
    expected = _scalar_reference(design, TRIALS, make_rng(31),
                                 variation=variation)
    batched = simulate_access_bounds_hardware(design, TRIALS, make_rng(31),
                                              variation=variation)
    assert np.array_equal(batched, expected)
