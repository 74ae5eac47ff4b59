"""A keystore whose shares are built late answers as one built at once.

:class:`~repro.connection.keystore.BankKeyStore` builds its shares on
their first readout, and a store with no fault hook that has never built
them answers ``recover`` with its secret.  This pins that against a twin
store from a generator in the same state whose shares are forced at
construction, for every kind of store: GF(2^8) Shamir at two
thresholds, GF(2^16) Shamir, Reed-Solomon and plain replicas, each with
and without a fault hook.  The twins must answer every live set alike,
raise alike below the threshold and out of range, and leave their
generators alike; the shares either builds must be, byte for byte, the
split the reference functions give from that same generator state.
"""

import numpy as np
import pytest

from repro.codes.shamir import split_secret
from repro.codes.shamir16 import split_secret16
from repro.codes.threshold import rs_split_secret
from repro.connection.keystore import BankKeyStore
from repro.errors import ReproError
from repro.faults.injectors import FaultModel, ReadoutTimeout, ShareCorruption
from repro.sim.rng import make_rng

SECRET = bytes(range(100, 116))
#: An odd length, so GF(2^16) splits pad the last symbol.
ODD_SECRET = bytes(range(40, 57))

#: ``id: (secret, n, k, scheme, reference split)``.
KINDS = {
    "gf256-k2": (SECRET, 6, 2, "shamir",
                 lambda s, k, n, rng: split_secret(s, k, n, rng)),
    "gf256-k6": (SECRET, 12, 6, "shamir",
                 lambda s, k, n, rng: split_secret(s, k, n, rng)),
    "gf65536-n300": (ODD_SECRET, 300, 8, "shamir",
                     lambda s, k, n, rng: split_secret16(s, k, n, rng)),
    "rs": (SECRET, 12, 4, "rs",
           lambda s, k, n, rng: rs_split_secret(s, k, n)),
    "replicas": (SECRET, 5, 1, "shamir",
                 lambda s, k, n, rng: [s] * n),
}


def _hook(hooked: bool):
    if not hooked:
        return None
    return FaultModel([ShareCorruption(0.05), ReadoutTimeout(0.05)],
                      rng=make_rng(11))


def _twins(kind: str, hooked: bool):
    """A lazy and a forced store, with the generators they drew from."""
    secret, n, k, scheme, _ = KINDS[kind]
    rngs = (make_rng(5), make_rng(5))
    lazy, forced = (BankKeyStore(secret, n, k, rng, scheme=scheme,
                                 bank_id=3, fault_hook=_hook(hooked))
                    for rng in rngs)
    forced._shares
    return lazy, forced, rngs


def _live_sets(n: int, k: int) -> list[list[int]]:
    order = np.random.default_rng(17)
    sets = [list(range(n)), list(range(k)), list(range(n - k, n))]
    for _ in range(24):
        size = int(order.integers(k, n + 1))
        picked = order.permutation(n)[:size]
        sets.append(sorted(picked.tolist()) if size % 2 else picked.tolist())
    return sets


def _outcome(store, live):
    """The answer to ``recover(live)``, or the error and its context."""
    try:
        return store.recover(live)
    except ReproError as exc:
        return type(exc).__name__, str(exc), vars(exc)


def _pairs(shares: list) -> list:
    """Shares as comparable ``(index, data)`` pairs; replicas as is."""
    return [share if isinstance(share, bytes) else (share.index, share.data)
            for share in shares]


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
@pytest.mark.parametrize("kind", list(KINDS))
class TestLazyShares:
    def test_generators_end_alike(self, kind, hooked):
        _, _, (lazy_rng, forced_rng) = _twins(kind, hooked)
        secret, n, k, _, split = KINDS[kind]
        reference_rng = make_rng(5)
        split(secret, k, n, reference_rng)
        state = reference_rng.bit_generator.state
        assert lazy_rng.bit_generator.state == state
        assert forced_rng.bit_generator.state == state

    def test_every_live_set_answers_alike(self, kind, hooked):
        lazy, forced, _ = _twins(kind, hooked)
        secret, n, k, _, _ = KINDS[kind]
        for live in _live_sets(n, k):
            answer = _outcome(lazy, live)
            assert answer == _outcome(forced, live), live
            if not hooked:
                assert answer == secret

    def test_errors_are_alike(self, kind, hooked):
        lazy, forced, _ = _twins(kind, hooked)
        _, n, k, _, _ = KINDS[kind]
        for live in (list(range(k - 1)), [*range(k - 1), n],
                     [-1, *range(k)]):
            failed = _outcome(lazy, live)
            assert isinstance(failed, tuple), live
            assert failed == _outcome(forced, live)
        assert lazy._shares_list is None

    def test_built_shares_are_the_reference_split(self, kind, hooked):
        lazy, forced, (lazy_rng, _) = _twins(kind, hooked)
        secret, n, k, _, split = KINDS[kind]
        expected = split(secret, k, n, make_rng(5))
        # The next copy's draws come before the lazy store's build.
        lazy_rng.random(64)
        assert _pairs(forced._shares) == _pairs(lazy._shares) \
            == _pairs(expected)
