"""Fabrication from one block of generator words equals the per-copy calls.

:func:`~repro.connection.architecture.fabricate_copies` takes a tenant's
draws as one block where :func:`~repro.sim.rng.uniforms_and_bytes` says
the generator's layout allows it, and makes the per-copy calls
elsewhere.  This compares it with
:func:`~tests.differential._reference.reference_fabricate_copies`, the
per-copy calls on every input, over the shapes of
``tests/connection/test_fabrication_pin.py`` and more seeds, from fresh
generators and from generators holding a buffered 32-bit half: the
lifetimes, every store's rows and built shares, and the generator's
later draws must be equal.  Each case also checks which side of the
selection it ran on, so both sides stay covered.
"""

from unittest import mock

import numpy as np
import pytest

from repro.connection.architecture import fabricate_copies
from repro.core.weibull import WeibullDistribution
from repro.service.client import tenant_population
from repro.service.hub import _validate_params
from repro.sim import rng as rng_module
from repro.sim.rng import make_rng, uniforms_and_bytes
from tests.connection.test_fabrication_pin import (
    PRESTATES,
    SHAPES,
    fabricate_shape,
    generator,
    hub_fabricate,
)
from tests.differential._reference import reference_fabricate_copies

SEEDS = list(range(12)) + [2 ** 64 + 7]

#: The shapes fabricated as one block from a fresh generator: no
#: variation, and a split that fills whole 64-bit words or none at all.
BLOCK_SHAPES = {"hub-default", "faults-design", "k1", "rs", "split-24"}

#: Variation and GF(2^16) splits never ask for a block.
NEVER_ASK = {"lognormal", "gf65536-n300"}


def drawn(lifetimes, stores, rng) -> dict:
    """Everything fabrication fixed, and what ``rng`` draws next."""
    return {
        "lifetimes": lifetimes.tobytes(),
        "shape": lifetimes.shape,
        "rows": [None if store._rows is None
                 else (store._rows.dtype.str, store._rows.shape,
                       store._rows.tobytes())
                 for store in stores],
        "shares": [store._shares for store in stores],
        "banks": [store.bank_id for store in stores],
        "next": (rng.random(3).tolist(),
                 rng.integers(0, 256, 3, dtype=np.uint8).tolist(),
                 rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist()),
    }


def blocks_taken(call) -> list[bool]:
    """Run ``call``; whether each ``uniforms_and_bytes`` gave a block."""
    taken = []

    def spy(*args):
        block = uniforms_and_bytes(*args)
        taken.append(block is not None)
        return block

    with mock.patch.object(rng_module, "uniforms_and_bytes", spy):
        call()
    return taken


@pytest.mark.parametrize("prestate", PRESTATES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_matches_the_per_copy_calls(shape, prestate):
    sides = ([] if shape in NEVER_ASK
             else [shape in BLOCK_SHAPES and prestate == "fresh"])
    for seed in SEEDS:
        rng = generator(seed, prestate)
        made = []
        taken = blocks_taken(lambda: made.extend(
            fabricate_shape(fabricate_copies, shape, rng)))
        assert taken == sides
        reference = generator(seed, prestate)
        assert drawn(*made, rng) == drawn(
            *fabricate_shape(reference_fabricate_copies, shape, reference),
            reference), (shape, prestate, seed)


def test_hub_tenants_match_the_per_copy_calls():
    """``WearHub._fabricate`` on the service's population, faults too."""
    population = (tenant_population(20, 3, alpha=1e4, beta=8.0)
                  + tenant_population(6, 4, faults={"misfire_rate": 0.1})
                  + tenant_population(6, 5, scheme="rs"))
    for request in population:
        params = _validate_params(request)
        taken = blocks_taken(lambda: hub_fabricate(params))
        assert taken == [True]
        lifetimes, stores, rng = hub_fabricate(params)
        reference = make_rng(params["seed"])
        expected = reference_fabricate_copies(
            WeibullDistribution(params["alpha"], params["beta"]),
            params["copies"], params["n"], params["k"],
            bytes.fromhex(params["secret"]), reference,
            scheme=params["scheme"])
        assert drawn(lifetimes, stores, rng) == drawn(*expected, reference)


@pytest.mark.parametrize("nbytes", [0, 8, 16, 24, 160])
@pytest.mark.parametrize("rounds,doubles", [(1, 1), (3, 6), (20, 53)])
def test_uniforms_and_bytes_are_the_calls(rounds, doubles, nbytes):
    for seed in SEEDS:
        rng, reference = make_rng(seed), make_rng(seed)
        uniforms, octets = uniforms_and_bytes(rng, rounds, doubles, nbytes)
        for r in range(rounds):
            assert uniforms[r].tobytes() == reference.random(doubles).tobytes()
            assert octets[r].tobytes() == reference.integers(
                0, 256, nbytes, dtype=np.uint8).tobytes()
        assert (uniforms.shape, octets.shape) == ((rounds, doubles),
                                                  (rounds, nbytes))
        assert rng.random(2).tolist() == reference.random(2).tolist()
        assert (rng.integers(0, 256, 5, dtype=np.uint8).tolist()
                == reference.integers(0, 256, 5, dtype=np.uint8).tolist())


def _generator(case: str) -> np.random.Generator:
    if case == "mt19937":
        return np.random.Generator(np.random.MT19937(7))
    if case == "philox":
        return np.random.Generator(np.random.Philox(7))
    return generator(7, "buffered" if case == "buffered" else "fresh")


@pytest.mark.parametrize("case", ["half-word", "odd-bytes", "buffered",
                                  "mt19937", "philox"])
def test_no_block_where_it_would_not_reproduce_the_calls(case):
    """None, and nothing drawn, so the caller's calls draw as before."""
    nbytes = {"half-word": 4, "odd-bytes": 10}.get(case, 16)
    rng, twin = _generator(case), _generator(case)
    assert uniforms_and_bytes(rng, 3, 6, nbytes) is None
    assert (rng.integers(0, 256, 9, dtype=np.uint8).tolist()
            == twin.integers(0, 256, 9, dtype=np.uint8).tolist())
    assert rng.random(3).tolist() == twin.random(3).tolist()
