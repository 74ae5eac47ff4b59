"""Tests for the Reed-Solomon code (encode, erasures, errors, errata)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.reed_solomon import ReedSolomonCode
from repro.errors import ConfigurationError, DecodingFailure


@pytest.fixture(scope="module")
def code():
    return ReedSolomonCode(20, 8)


def random_message(rng, k=8):
    return [int(v) for v in rng.integers(0, 256, k)]


class TestConstruction:
    @pytest.mark.parametrize("n,k", [(0, 0), (10, 0), (10, 11), (256, 10)])
    def test_invalid_parameters(self, n, k):
        with pytest.raises(ConfigurationError):
            ReedSolomonCode(n, k)

    def test_generator_degree(self, code):
        assert code.generator_poly.degree == code.parity

    def test_generator_roots(self, code):
        for i in range(code.parity):
            assert code.generator_poly(code.field.exp(i)) == 0

    def test_rate_one_code(self):
        code = ReedSolomonCode(5, 5)
        msg = [1, 2, 3, 4, 5]
        assert code.encode(msg) == msg


class TestEncoding:
    def test_systematic(self, code, rng):
        msg = random_message(rng)
        assert code.encode(msg)[:8] == msg

    def test_codeword_has_zero_syndromes(self, code, rng):
        cw = code.encode(random_message(rng))
        assert code.is_codeword(cw)
        assert all(s == 0 for s in code.syndromes(cw))

    def test_wrong_length_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.encode([1, 2, 3])

    def test_non_byte_symbols_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.encode([300] * 8)

    def test_linearity(self, code, rng):
        a, b = random_message(rng), random_message(rng)
        xor = [x ^ y for x, y in zip(a, b)]
        cw_xor = [x ^ y for x, y in zip(code.encode(a), code.encode(b))]
        assert code.encode(xor) == cw_xor


class TestErasureDecoding:
    def test_max_erasures_recovered(self, code, rng):
        msg = random_message(rng)
        cw = code.encode(msg)
        erasures = list(rng.choice(20, size=code.parity, replace=False))
        received = list(cw)
        for p in erasures:
            received[p] = 0xAA
        assert code.decode_erasures(received, erasures) == msg

    def test_erasures_beyond_capacity_raise(self, code, rng):
        cw = code.encode(random_message(rng))
        with pytest.raises(DecodingFailure):
            code.decode_erasures(cw, list(range(code.parity + 1)))

    def test_no_erasures_is_identity(self, code, rng):
        msg = random_message(rng)
        assert code.decode_erasures(code.encode(msg), []) == msg

    def test_erasure_positions_validated(self, code, rng):
        cw = code.encode(random_message(rng))
        with pytest.raises(ConfigurationError):
            code.decode_erasures(cw, [99])

    def test_wrong_word_length_rejected(self, code):
        with pytest.raises(ConfigurationError):
            code.decode([1, 2, 3])


class TestErrorDecoding:
    def test_single_error(self, code, rng):
        msg = random_message(rng)
        received = code.encode(msg)
        received[5] ^= 0x42
        assert code.decode(received) == msg

    def test_max_errors(self, code, rng):
        msg = random_message(rng)
        received = code.encode(msg)
        for p in rng.choice(20, size=code.parity // 2, replace=False):
            received[p] ^= int(rng.integers(1, 256))
        assert code.decode(received) == msg

    def test_error_in_parity_region(self, code, rng):
        msg = random_message(rng)
        received = code.encode(msg)
        received[19] ^= 0x99
        assert code.decode(received) == msg

    def test_too_many_errors_raise_or_miscorrect_detectably(self, code, rng):
        msg = random_message(rng)
        received = code.encode(msg)
        for p in range(code.parity // 2 + 2):
            received[p] ^= int(rng.integers(1, 256))
        with pytest.raises(DecodingFailure):
            code.decode(received)

    def test_max_errors_budget_parameter(self, code, rng):
        msg = random_message(rng)
        received = code.encode(msg)
        received[3] ^= 1
        with pytest.raises(DecodingFailure):
            code.decode(received, max_errors=0)


class TestErrataDecoding:
    def test_mixed_errors_and_erasures(self, code, rng):
        # 2e + f <= 12: use 3 errors + 6 erasures.
        msg = random_message(rng)
        cw = code.encode(msg)
        received = list(cw)
        erasures = [0, 4, 9, 13, 17, 19]
        for p in erasures:
            received[p] = 0xEE
        for p in (2, 7, 11):
            received[p] ^= int(rng.integers(1, 256))
        assert code.decode(received, erasure_positions=erasures) == msg

    def test_erased_zeros_still_recovered(self, code, rng):
        """Erasing symbols that happen to be zero must still decode."""
        msg = [0] * 8
        cw = code.encode(msg)
        assert code.decode_erasures(cw, [0, 1, 2]) == msg

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_errata_roundtrip_property(self, data):
        n = data.draw(st.integers(8, 40))
        k = data.draw(st.integers(1, n - 2))
        code = ReedSolomonCode(n, k)
        msg = data.draw(st.lists(st.integers(0, 255), min_size=k,
                                 max_size=k))
        cw = code.encode(msg)
        parity = n - k
        f = data.draw(st.integers(0, parity))
        e = data.draw(st.integers(0, (parity - f) // 2))
        positions = data.draw(st.permutations(range(n)))
        erasures = sorted(positions[:f])
        error_positions = positions[f:f + e]
        received = list(cw)
        for p in erasures:
            received[p] = data.draw(st.integers(0, 255))
        for p in error_positions:
            received[p] ^= data.draw(st.integers(1, 255))
        assert code.decode(received, erasure_positions=erasures) == msg


class TestThresholdSemantics:
    def test_any_k_symbols_suffice(self, rng):
        """The architecture's claim: any k of n symbols recover the key."""
        code = ReedSolomonCode(12, 4)
        msg = random_message(rng, 4)
        cw = code.encode(msg)
        keep = list(rng.choice(12, size=4, replace=False))
        erasures = [i for i in range(12) if i not in keep]
        received = [cw[i] if i in keep else 0 for i in range(12)]
        assert code.decode_erasures(received, erasures) == msg


#: Geometries for the batch contracts: the fault-campaign design's
#: (53, 6), the widest code, k = 1 and a rate-one code with no parity.
BATCH_CODES = [(15, 5), (53, 6), (20, 10), (255, 223), (9, 1), (12, 12)]


def _errata_batch(code, rng, erased):
    """1-4 codewords sharing ``erased`` erasures, each with its own errors.

    Error counts run from 0 to two past the unique-decoding radius, so
    rows decode, fail or miscorrect.
    """
    rows = int(rng.integers(1, 5))
    erasures = sorted(int(p) for p in rng.choice(code.n, erased,
                                                 replace=False))
    radius = max(code.parity - erased, 0) // 2
    words = []
    for _ in range(rows):
        word = np.array(code.encode(rng.integers(0, 256, code.k).tolist()),
                        dtype=np.uint8)
        word[erasures] = rng.integers(0, 256, erased)  # ignored by decode
        live = np.setdiff1d(np.arange(code.n), erasures)
        errors = min(int(rng.integers(0, radius + 3)), live.size)
        hit = rng.choice(live, errors, replace=False)
        word[hit] ^= rng.integers(1, 256, errors).astype(np.uint8)
        words.append(word)
    return np.array(words), erasures


def _decode_rows(code, words, erasures, max_errors):
    """``decode`` on each row: the messages, or the first row's failure."""
    out = []
    for word in words:
        try:
            out.append(code.decode(word.tolist(), erasures, max_errors))
        except DecodingFailure as exc:
            return None, exc
    return np.array(out, dtype=np.uint8), None


class TestBatchContracts:
    """``decode_many`` and ``encode_many`` are their scalar twins per row."""

    @pytest.mark.parametrize("max_errors", [None, 0, 1])
    @pytest.mark.parametrize("n,k", BATCH_CODES)
    def test_decode_many_is_decode_row_by_row(self, n, k, max_errors):
        code = ReedSolomonCode(n, k)
        rng = np.random.default_rng([n, k, 2 if max_errors is None
                                     else max_errors])
        # No erasures, a full parity's worth, one past it, then random
        # sets in between.
        schedule = [0, code.parity, min(code.parity + 1, n)]
        schedule += rng.integers(0, min(code.parity + 1, n) + 1,
                                 11).tolist()
        for erased in schedule:
            words, erasures = _errata_batch(code, rng, erased)
            expected, failure = _decode_rows(code, words, erasures,
                                             max_errors)
            if failure is None:
                got = code.decode_many(words, erasures, max_errors)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, expected)
            else:
                with pytest.raises(type(failure)) as info:
                    code.decode_many(words, erasures, max_errors)
                assert str(info.value) == str(failure)

    def test_decode_many_raises_the_first_failing_rows_error(self, rng):
        code = ReedSolomonCode(20, 8)
        words = np.array([code.encode(random_message(rng))
                          for _ in range(3)], dtype=np.uint8)
        words[1, 4] ^= 0x11                   # one error
        words[2, [3, 9]] ^= 0x22              # two errors
        with pytest.raises(DecodingFailure,
                           match="estimated 1 errors exceeds budget 0"):
            code.decode_many(words, max_errors=0)
        with pytest.raises(DecodingFailure,
                           match="estimated 2 errors exceeds budget 0"):
            code.decode_many(words[[0, 2, 1]], max_errors=0)

    def test_decode_many_checks_the_batch_before_any_row(self):
        code = ReedSolomonCode(15, 5)
        with pytest.raises(ConfigurationError):
            code.decode_many(np.zeros((2, 14), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            code.decode_many(np.zeros((2, 15), dtype=np.uint8), [15])
        with pytest.raises(DecodingFailure, match="11 erasures exceed"):
            code.decode_many(np.zeros((0, 15), dtype=np.uint8),
                             list(range(11)))

    @pytest.mark.parametrize("n,k", BATCH_CODES)
    def test_encode_many_is_encode_row_by_row(self, n, k):
        code = ReedSolomonCode(n, k)
        rng = np.random.default_rng([n, k])
        messages = rng.integers(0, 256, (7, k), dtype=np.uint8)
        messages[0] = 0                       # the zero codeword
        messages[1, ::2] = 0                  # zero symbols mid-message
        got = code.encode_many(messages)
        assert got.shape == (7, n) and got.dtype == np.uint8
        for row, message in zip(got, messages):
            assert row.tolist() == code.encode(message.tolist())
        assert code.encode_many(messages[:0]).shape == (0, n)
