"""Tests for binding shares to bank switches."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.shamir import Share, recover_secret
from repro.codes.shamir16 import Share16, recover_secret16
from repro.codes.threshold import rs_recover_secret
from repro.connection import keystore
from repro.connection.keystore import BankKeyStore
from repro.errors import (
    ConfigurationError,
    DecodingFailure,
    InsufficientSharesError,
)
from repro.faults.injectors import FaultModel, ReadoutTimeout, ShareCorruption

SECRET = b"sixteen byte key"


class XorReadout:
    """A readout hook that reads the shares at ``indices`` XORed."""

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.indices: set[int] = set()

    def on_shares_readout(self, bank_id, indices, datas):
        return [bytes(b ^ self.mask for b in data)
                if i in self.indices else data
                for i, data in zip(indices, datas)]


def corrupt_share(store, *indices, mask=0xA5):
    """Model decayed registers: from now on the shares at ``indices``
    read with every byte XORed by ``mask``."""
    if store.fault_hook is None:
        store.fault_hook = XorReadout(mask)
    store.fault_hook.indices.update(indices)


class TestUnencoded:
    def test_any_single_switch_recovers(self, rng):
        store = BankKeyStore(SECRET, n=5, k=1, rng=rng)
        for i in range(5):
            assert store.recover([i]) == SECRET

    def test_supports_large_banks(self, rng):
        # Unencoded banks can exceed 255 devices (plain replicas).
        store = BankKeyStore(SECRET, n=1000, k=1, rng=rng)
        assert store.recover([999]) == SECRET


class TestEncoded:
    def test_threshold_recovery(self, rng):
        store = BankKeyStore(SECRET, n=10, k=4, rng=rng)
        assert store.recover([1, 3, 5, 7]) == SECRET
        assert store.recover(list(range(10))) == SECRET

    def test_below_threshold_raises(self, rng):
        store = BankKeyStore(SECRET, n=10, k=4, rng=rng)
        with pytest.raises(InsufficientSharesError):
            store.recover([0, 1, 2])

    def test_wide_encoded_banks_use_gf65536(self, rng):
        store = BankKeyStore(SECRET, n=300, k=30, rng=rng)
        assert store.recover(list(range(200, 230))) == SECRET

    def test_index_validation(self, rng):
        store = BankKeyStore(SECRET, n=5, k=2, rng=rng)
        with pytest.raises(ConfigurationError):
            store.recover([0, 7])

    def test_invalid_parameters(self, rng):
        with pytest.raises(ConfigurationError):
            BankKeyStore(SECRET, n=5, k=6, rng=rng)
        with pytest.raises(ConfigurationError):
            BankKeyStore(b"", n=5, k=2, rng=rng)
        with pytest.raises(ConfigurationError):
            BankKeyStore(SECRET, n=5, k=2, rng=rng, scheme="xor")


class TestRSScheme:
    def test_threshold_recovery(self, rng):
        store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs")
        assert store.recover([0, 3, 7, 11]) == SECRET

    def test_corrupted_share_corrected(self, rng):
        """Fault injection: a decaying register flips bits.  RS corrects
        it (2e <= n - k - f); Shamir would return garbage."""
        store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs")
        corrupt_share(store, 2, mask=0xFF)
        # All 12 live: 1 error, 0 erasures, capacity (12-4)/2 = 4.
        assert store.recover(list(range(12))) == SECRET

    def test_shamir_returns_garbage_on_corruption(self, rng):
        store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="shamir")
        corrupt_share(store, 2, mask=0xFF)
        recovered = store.recover([0, 1, 2, 3])  # includes the bad share
        assert recovered != SECRET  # silent corruption - the RS motivation

    def test_corruption_beyond_radius_detected(self, rng):
        store = BankKeyStore(SECRET, n=6, k=4, rng=rng, scheme="rs")
        corrupt_share(store, 0, 1, 2)  # 3 errors > (6-4)/2 = 1
        with pytest.raises(DecodingFailure):
            store.recover(list(range(6)))

    def test_rs_capped_at_255(self, rng):
        with pytest.raises(ConfigurationError):
            BankKeyStore(SECRET, n=300, k=30, rng=rng, scheme="rs")


class TestRSCorrectionBoundary:
    """RS recovery succeeds iff ``2 * errors <= n - k - missing``."""

    def test_recovers_exactly_up_to_the_radius(self, rng):
        # n=12, k=4, 2 shares missing: radius (12 - 4 - 2) // 2 = 3.
        live = list(range(10))  # indices 10, 11 never closed
        for errors in range(4):
            store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs")
            for i in range(errors):
                corrupt_share(store, i)
            assert store.recover(live) == SECRET, f"{errors} errors"

    def test_beyond_radius_raises_with_context(self, rng):
        store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs",
                             bank_id=7)
        for i in range(4):  # 4 errors > radius 3 with 2 missing
            corrupt_share(store, i)
        with pytest.raises(DecodingFailure) as excinfo:
            store.recover(list(range(10)))
        assert excinfo.value.bank_id == 7
        assert excinfo.value.n == 12
        assert excinfo.value.k == 4

    def test_erasures_and_errors_trade_off(self, rng):
        # Same code, 4 missing: radius drops to (12 - 4 - 4) // 2 = 2.
        live = list(range(8))
        store = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs")
        corrupt_share(store, 0)
        corrupt_share(store, 1)
        assert store.recover(live) == SECRET
        corrupt_share(store, 2)  # third error: outside the radius
        with pytest.raises(DecodingFailure):
            store.recover(live)


class TestErrorContext:
    def test_below_threshold_error_carries_context(self, rng):
        store = BankKeyStore(SECRET, n=10, k=4, rng=rng, bank_id=3)
        with pytest.raises(InsufficientSharesError) as excinfo:
            store.recover([0, 5])
        err = excinfo.value
        assert err.supplied == 2
        assert err.required == 4
        assert err.bank_id == 3
        assert err.timeouts is None  # switches, not readouts, were short

    def test_timeout_starved_recovery_reports_timeouts(self, rng):
        hook = FaultModel([ReadoutTimeout(1.0)], rng=rng)
        store = BankKeyStore(SECRET, n=10, k=4, rng=rng, bank_id=1,
                             fault_hook=hook)
        with pytest.raises(InsufficientSharesError) as excinfo:
            store.recover(list(range(10)))
        err = excinfo.value
        assert err.supplied == 0
        assert err.required == 4
        assert err.bank_id == 1
        assert err.timeouts == 10


class TestFaultHookReadout:
    def test_hook_free_store_reads_shares_verbatim(self, rng):
        store = BankKeyStore(SECRET, n=10, k=4, rng=rng)
        assert store.fault_hook is None
        assert store.recover(list(range(10))) == SECRET

    def test_corrupting_hook_defeats_shamir_but_not_rs(self, rng):
        corrupting = FaultModel([ShareCorruption(0.3)], rng=rng)
        shamir = BankKeyStore(SECRET, n=12, k=4, rng=rng,
                              fault_hook=corrupting)
        rs = BankKeyStore(SECRET, n=12, k=4, rng=rng, scheme="rs",
                          fault_hook=FaultModel([ShareCorruption(0.1)],
                                                rng=rng))
        # Shamir eventually reconstructs garbage without noticing.
        results = {shamir.recover(list(range(12))) for _ in range(30)}
        assert any(r != SECRET for r in results)
        # RS corrects the same pressure (expected ~1.2 errors/read,
        # radius (12 - 4) // 2 = 4).
        for _ in range(30):
            assert rs.recover(list(range(12))) == SECRET


class ScriptedReadout:
    """A readout hook that answers share ``i`` as ``script[i]`` says.

    ``"stored"`` returns the object read, ``"copy"`` an equal copy,
    ``"corrupt"`` a copy with one byte XORed, and ``"lost"`` ``None``.
    """

    def __init__(self, script: dict) -> None:
        self.script = script

    def on_shares_readout(self, bank_id, indices, datas):
        out = []
        for i, data in zip(indices, datas):
            kind, position, mask = self.script[i]
            if kind == "copy":
                data = bytes(bytearray(data))
            elif kind == "corrupt":
                flipped = bytearray(data)
                flipped[position % len(flipped)] ^= mask
                data = bytes(flipped)
            elif kind == "lost":
                data = None
            out.append(data)
        return out


@st.composite
def readout_cases(draw, kind: str):
    """A store's parameters, a sorted live set and its readout script."""
    if kind == "gf65536":
        n, k = 300, draw(st.integers(2, 12))
    else:
        n = draw(st.one_of(st.integers(2, 24), st.sampled_from([53, 255])))
        k = draw(st.integers(2, min(n, 30)))
    secret = draw(st.binary(min_size=1, max_size=24))
    live = sorted(draw(st.lists(st.integers(0, n - 1), unique=True,
                                min_size=k - 1, max_size=min(n, k + 12))))
    script = {i: draw(st.tuples(
        st.sampled_from(["stored", "stored", "copy", "corrupt", "lost"]),
        st.integers(0, 255), st.integers(1, 255))) for i in live}
    return n, k, secret, live, script, draw(st.integers(0, 2**32 - 1))


def _recover_from_scratch(kind, store, readouts):
    """The reference answer: the readouts decoded with no store state."""
    present = [(i, data) for i, data in readouts if data is not None]
    if kind == "gf256":
        return recover_secret([Share(i + 1, data) for i, data in present],
                              k=store.k)
    if kind == "gf65536":
        return recover_secret16([Share16(i + 1, data)
                                 for i, data in present],
                                k=store.k, secret_len=store._secret_len)
    return rs_recover_secret([Share(i + 1, data) for i, data in present],
                             store.k, store.n, correct_errors=True,
                             secret_len=store._secret_len)


class TestReadoutRule:
    """A store answers every readout as recovery from scratch does.

    Shares never change once built, so a readout that is its stored
    share object reads as the secret and every other readout is
    decoded.  Pinned against decoding the same readouts with the
    reference functions, and by call counts: untouched readouts decode
    nothing, and an equal copy is decoded.
    """

    @pytest.mark.parametrize("kind", ["gf256", "gf65536", "rs"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_recovery_from_scratch(self, kind, data):
        n, k, secret, live, script, seed = data.draw(readout_cases(kind))
        hook = ScriptedReadout(script)
        store = BankKeyStore(secret, n, k, np.random.default_rng(seed),
                             scheme="rs" if kind == "rs" else "shamir",
                             fault_hook=hook)
        assert store._mode == kind
        stored = [share.data for share in store._shares]
        read = hook.on_shares_readout(0, live, [stored[i] for i in live])
        readouts = list(zip(live, read))
        calls = {"interpolate": 0, "decode_many": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        interpolate = ("recover_from_pairs" if kind == "gf256"
                       else "recover_secret16")
        try:
            expected = _recover_from_scratch(kind, store, readouts)
        except (InsufficientSharesError, DecodingFailure) as exc:
            expected = type(exc)
        with mock.patch.object(keystore, interpolate, counting(
                "interpolate", getattr(keystore, interpolate))), \
                mock.patch.object(ReedSolomonCode, "decode_many", counting(
                    "decode_many", ReedSolomonCode.decode_many)):
            if isinstance(expected, bytes):
                assert store.recover(live) == expected
            else:
                with pytest.raises(expected):
                    store.recover(live)

        present = [(i, d) for i, d in readouts if d is not None]
        if len(present) < k:
            assert calls == {"interpolate": 0, "decode_many": 0}
        elif kind == "rs":
            assert calls["interpolate"] == 0
            assert calls["decode_many"] <= 1
            if all(d == stored[i] for i, d in present):
                # Equal copies lie within the radius: nothing to decode.
                assert calls["decode_many"] == 0
                assert expected == secret
        else:
            # Shamir reads the first k live readouts; one that is not
            # its stored object, an equal copy included, is decoded.
            touched = any(d is not stored[i] for i, d in present[:k])
            assert calls == {"interpolate": int(touched), "decode_many": 0}
            if not touched:
                assert expected == secret
