"""What fabrication draws from a generator, pinned by digest.

A tenant rebuilt from its provision record must get the hardware it was
provisioned with: ledgers on disk replay through
:func:`~repro.connection.architecture.fabricate_copies`, so a change to
what it draws, or in which order, would rebuild other lifetimes and
shares from the same record while every live-against-recovered check
still agreed with itself.  The digests below were recorded while
fabrication drew copy by copy (``variation.sample_lifetimes`` then the
store's coefficient rows) at ``e8c231b``.  Each covers the lifetimes'
bytes, every store's rows and built shares, and what the generator draws
next: ``random(3)``, then ``integers(0, 256, 3, uint8)``, then
``integers(0, 2**32, 3, uint32)``.  The generator's raw ``state`` dict
is not digested: numpy ignores its ``uinteger`` field while
``has_uint32`` is 0, so a stale value there draws nothing different.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.connection.architecture import fabricate_copies
from repro.core.variation import LognormalVariation
from repro.core.weibull import WeibullDistribution
from repro.faults.campaign import CAMPAIGN_SECRET
from repro.service import hub as hub_module
from repro.service.hub import WearHub, _validate_params
from repro.sim.rng import make_rng
from tests.service.test_ledger import REFERENCE_TENANTS

SECRET = bytes(range(1, 17))

#: ``id: fabricate_copies arguments``.  ``hub-default`` is the service's
#: tenant shape, ``faults-design`` the fault campaign's n=53, k=6, 20
#: copies with its 32-byte secret; ``split-24`` fills three 64-bit words
#: per copy and ``split-10`` leaves a 32-bit half buffered after each.
SHAPES = {
    "hub-default": dict(device=(1e4, 8.0), copies=3, n=6, k=2,
                        secret=SECRET),
    "faults-design": dict(device=(10.0, 8.0), copies=20, n=53, k=6,
                          secret=CAMPAIGN_SECRET),
    "k1": dict(device=(9.0, 6.0), copies=4, n=5, k=1, secret=SECRET),
    "rs": dict(device=(9.0, 6.0), copies=3, n=12, k=4, secret=SECRET,
               scheme="rs"),
    "split-10": dict(device=(9.0, 6.0), copies=3, n=6, k=2,
                     secret=SECRET[:10]),
    "split-24": dict(device=(9.0, 6.0), copies=3, n=7, k=3,
                     secret=SECRET[:12]),
    "gf65536-n300": dict(device=(50.0, 4.0), copies=2, n=300, k=8,
                         secret=SECRET),
    "lognormal": dict(device=(1e4, 8.0), copies=3, n=6, k=2, secret=SECRET,
                      variation=LognormalVariation(0.1, 0.05)),
}

#: Generator states before fabrication: ``fresh`` from its seed, and
#: ``buffered`` after one 32-bit draw, which leaves the other half of a
#: 64-bit word buffered for the next 32-bit draw.
PRESTATES = ("fresh", "buffered")


def generator(seed: int, prestate: str) -> np.random.Generator:
    rng = make_rng(seed)
    if prestate == "buffered":
        rng.integers(0, 2 ** 32, dtype=np.uint32)
    return rng


def fabricate_shape(fabricate, shape: str, rng: np.random.Generator):
    """``fabricate`` (``fabricate_copies`` or a twin) on :data:`SHAPES`."""
    args = dict(SHAPES[shape])
    device = WeibullDistribution(*args.pop("device"))
    return fabricate(device, args.pop("copies"), args.pop("n"),
                     args.pop("k"), args.pop("secret"), rng, **args)


def digest(lifetimes: np.ndarray, stores: list,
           rng: np.random.Generator) -> str:
    """SHA-256 of lifetimes, rows, built shares and the next draws."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(lifetimes, dtype="<f8").tobytes())
    for store in stores:
        rows = store._rows
        h.update(b"rows:none" if rows is None else
                 f"rows:{rows.dtype.str}{rows.shape}".encode()
                 + rows.tobytes())
        for share in store._shares:
            if isinstance(share, bytes):
                h.update(b"replica:" + share)
            else:
                h.update(f"share:{share.index}:".encode()
                         + bytes(share.data))
    h.update(rng.random(3).tobytes())
    h.update(rng.integers(0, 256, 3, dtype=np.uint8).tobytes())
    h.update(rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tobytes())
    return h.hexdigest()


def hub_params(index: int) -> dict:
    """The provision parameters of ``REFERENCE_TENANTS[index]``."""
    request = {"op": "provision", "alpha": 20 / 3, "beta": 5.0,
               "n": 5, "k": 2, "copies": 2,
               "secret": bytes(range(3, 19)).hex()}
    request.update(REFERENCE_TENANTS[index])
    return _validate_params(request)


def hub_fabricate(params: dict):
    """``WearHub._fabricate``'s lifetimes and stores, and its generator."""
    made = []

    def capture(seed):
        made.append(make_rng(seed))
        return made[-1]

    with mock.patch.object(hub_module, "make_rng", side_effect=capture):
        lifetimes, stores, _ = WearHub._fabricate(params)
    (rng,) = made
    return lifetimes, stores, rng


#: ``"shape/prestate/seed": digest``, recorded from the per-copy draws.
PINNED = {
    "hub-default/fresh/0":
        "a827721577e12d2be001f45b59c8df6e083993736c87e119228c8d80a3197f37",
    "hub-default/fresh/1":
        "9691fb49bf34f9425a0ae93c51402708c52602448e549e7a3b6b8bbde421e786",
    "hub-default/fresh/18446744073709551623":
        "3f82156777d0d11a164bbe398254e7052aec7004329fc4dcdd7b27d2cea3216f",
    "hub-default/buffered/0":
        "36ba07b76d57c29d3481f010beeff56fe21b8d998d928a27c26427a47cb8c4af",
    "faults-design/fresh/0":
        "0ee1c93175c79a789be49676f43335bfed1023def6920d08126f380ea5437994",
    "faults-design/fresh/4100":
        "85ba7cff812aa80586eba01c8ee122dddebb8b4d9380e9d12b07cadd1d520092",
    "faults-design/buffered/0":
        "e94c83412d3a5949e037299ca5391f03b5e233c47b35181b3a934dde6de96fa0",
    "k1/fresh/0":
        "614d1bfd67d85e085078370546d6a7fc5fb58137ac99c36ca7693468b5246eba",
    "k1/buffered/0":
        "eef3c3c51df8e16144fbe4b800e586766355487f0599ceaa38b79185407eb7b0",
    "rs/fresh/0":
        "cabe42d667ec859a36c3b87736e3e1c88d0a50905feb214369c12e6a7c317de0",
    "rs/buffered/0":
        "3aad4b524edf01fb478b7ba243db6eedf4a57e13f1f5c6064f98a24809ed6ae5",
    "split-10/fresh/0":
        "877c74eaca63e2bf5bab838924b25116a172b70894a824abb2eb7cea39e9722e",
    "split-24/fresh/0":
        "f3fdd21a3d4a5a8cd19fa81f673f62b5f1574b1845c495d18b559889fdf0e746",
    "split-24/buffered/0":
        "33aabaa3dfc5596cc204b57b0b28df838fcde947626b9b5b5e0affd86800e6e3",
    "gf65536-n300/fresh/0":
        "70163022906334c1241b30a62fc1b39de20a73be48fe2d408a1f28e7a8289677",
    "lognormal/fresh/0":
        "6501e67d2069e1a1ab4d86249d58aced94b66922cc28adf600b43a8579342f47",
}

#: ``REFERENCE_TENANTS`` index: digest of ``WearHub._fabricate``.
PINNED_HUB = {
    0: "2014efb7d3f664d05516511e72ef08a1e08d4cecc0461230d162649321cb0822",
    1: "84597689e3379106d2a270bd4f8d8ab2c5e47ef578eef52bad302e3daeb255e9",
    2: "02d0a88aedee1f4d77f59ef850ff7079654549a66441f6357452b6e4d13dcca2",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_fabricate_copies_draws_what_it_drew(case):
    shape, prestate, seed = case.split("/")
    rng = generator(int(seed), prestate)
    lifetimes, stores = fabricate_shape(fabricate_copies, shape, rng)
    assert digest(lifetimes, stores, rng) == PINNED[case]


@pytest.mark.parametrize("index", sorted(PINNED_HUB))
def test_hub_fabricates_what_it_fabricated(index):
    assert digest(*hub_fabricate(hub_params(index))) == PINNED_HUB[index]
