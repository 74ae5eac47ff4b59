"""Reed-Solomon codes over GF(256), with erasure and error decoding.

The paper uses RS codes as "the error correction version of Shamir's
secret-sharing scheme": the storage key is encoded into ``n`` symbols and
spread across the devices of a parallel structure; any ``k`` surviving
symbols (device failures are *erasures* - we know which switches died)
recover the key.

Implemented from scratch:

- systematic encoding via the generator polynomial
  ``g(x) = prod_{i=0}^{n-k-1} (x - alpha**i)``,
- syndrome computation,
- one errata decoder, :meth:`ReedSolomonCode.decode`: Berlekamp-Massey
  on the erasure-adjusted (Forney) syndromes, Chien search, and
  Forney's magnitude formula - corrects ``e`` errors and ``f`` erasures
  whenever ``2e + f <= n - k``.  Erasure-only decoding is that decoder
  with an error budget of 0, and ``decode_many`` is that decoder on
  each row.

Symbol layout is message-first: ``codeword[0:k]`` is the message,
``codeword[k:n]`` the parity.  Internally the codeword polynomial stores
the message in the high-degree coefficients, as is conventional.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, DecodingFailure
from repro.gf.field import GF256, GF_RS
from repro.gf.poly import Poly

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode:
    """An (n, k) Reed-Solomon code over GF(256).

    ``n`` is the codeword length (<= 255), ``k`` the message length.
    """

    def __init__(self, n: int, k: int, field: GF256 = GF_RS) -> None:
        if not 1 <= k <= n <= 255:
            raise ConfigurationError(
                f"need 1 <= k <= n <= 255, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.field = field
        self.generator_poly = self._build_generator()
        # Fixed evaluation points, precomputed once: syndrome points
        # alpha^0..alpha^(parity-1) and Chien points alpha^-d for every
        # stored degree, so the per-decode hot loops are single
        # vectorized Horner sweeps instead of thousands of scalar muls.
        self._syndrome_points = np.array(
            [field.exp(i) for i in range(self.parity)], dtype=np.uint8)
        self._chien_points = np.array(
            [field.pow(field.generator, -d) for d in range(n)],
            dtype=np.uint8)
        # Erasure locators keyed by erasure-degree tuple.
        self._erasure_cache: dict[tuple[int, ...], Poly] = {}
        # Parity-generator matrix for encode_many, built lazily: the
        # remainder map M(x)*x^parity mod g(x) is GF-linear in M, so the
        # parity of any message is the GF matmul of the message with the
        # unit-vector parities.  Stored as (log matrix, zero mask) in the
        # message-first/high-degree-first layout encode() returns.
        self._parity_logs: tuple[np.ndarray, np.ndarray | None] | None = None

    @property
    def parity(self) -> int:
        """Number of parity symbols (n - k)."""
        return self.n - self.k

    def _build_generator(self) -> Poly:
        g = Poly.one(self.field)
        for i in range(self.parity):
            g = g * Poly([self.field.exp(i), 1], self.field)
        return g

    # ------------------------------------------------------------------
    # Layout mapping between stored symbols and polynomial degrees
    # ------------------------------------------------------------------
    def _degree_of_position(self, pos: int) -> int:
        """Polynomial degree holding stored symbol ``pos``."""
        if pos < self.k:  # message symbols occupy the high degrees
            return self.parity + pos
        return self.parity - 1 - (pos - self.k)

    def _position_of_degree(self, degree: int) -> int:
        if degree >= self.parity:
            return degree - self.parity
        return self.k + (self.parity - 1 - degree)

    def _codeword_poly(self, symbols: Sequence[int]) -> Poly:
        msg, par = list(symbols[:self.k]), list(symbols[self.k:])
        return Poly(par[::-1] + msg, self.field)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, message: Sequence[int]) -> list[int]:
        """Systematically encode ``k`` message symbols into ``n`` symbols."""
        msg = [int(s) for s in message]
        if len(msg) != self.k:
            raise ConfigurationError(
                f"message must have exactly k={self.k} symbols, "
                f"got {len(msg)}")
        if any(not 0 <= s <= 255 for s in msg):
            raise ConfigurationError("symbols must be bytes (0..255)")
        if self.parity == 0:
            return msg
        shifted = Poly(msg, self.field).shift(self.parity)
        remainder = shifted % self.generator_poly
        parity_low_first = list(remainder.coeffs)
        parity_low_first += [0] * (self.parity - len(parity_low_first))
        return msg + parity_low_first[::-1]

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        """Encode ``(chunks, k)`` messages into ``(chunks, n)`` codewords.

        LFSR synthetic division vectorized across the chunk axis.  The
        remainder of dividing ``M(x) * x^parity`` by ``g(x)`` is unique,
        so each row is byte-identical to :meth:`encode` on that row.
        """
        msgs = np.ascontiguousarray(messages, dtype=np.uint8)
        if msgs.ndim != 2 or msgs.shape[1] != self.k:
            raise ConfigurationError(
                f"messages must have shape (chunks, k={self.k}), "
                f"got {msgs.shape}")
        if self.parity == 0:
            return msgs.copy()
        field = self.field
        cached = self._parity_logs
        if cached is None:
            # Parity rows of the k unit-vector codewords, via the scalar
            # encoder; row j is the parity contribution of message
            # symbol j, already in stored (high-degree-first) order.
            pmat = np.array([self.encode([int(i == j) for i in range(self.k)]
                                         )[self.k:]
                             for j in range(self.k)], dtype=np.uint8)
            zeros = pmat == 0
            cached = self._parity_logs = (
                field._log[pmat].astype(np.int64),
                zeros if zeros.any() else None)
        log_p, p_zero = cached
        # parity = msg @ P over GF(256): one exp gather over the summed
        # logs, masking the sentinel rows where a message symbol (or a
        # parity-matrix entry) is zero.
        lm = field._log[msgs].astype(np.int64)            # (chunks, k)
        terms = field._exp[lm[:, :, None] + log_p[None, :, :]]
        terms[lm < 0] = 0
        if p_zero is not None:
            terms[:, p_zero] = 0
        rem = np.bitwise_xor.reduce(terms, axis=1)        # (chunks, parity)
        return np.concatenate([msgs, rem], axis=1)

    # ------------------------------------------------------------------
    # Syndromes
    # ------------------------------------------------------------------
    def _syndrome_array(self, symbols: Sequence[int]) -> np.ndarray:
        if len(symbols) != self.n:
            raise ConfigurationError(
                f"received word must have n={self.n} symbols")
        return self._codeword_poly(symbols).eval_many(self._syndrome_points)

    def syndromes(self, symbols: Sequence[int]) -> list[int]:
        """Evaluate the received word at alpha^0 .. alpha^(parity-1)."""
        return [int(s) for s in self._syndrome_array(symbols)]

    def is_codeword(self, symbols: Sequence[int]) -> bool:
        return not bool(self._syndrome_array(symbols).any())

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_erasures(self, symbols: Sequence[int],
                        erasure_positions: Sequence[int]) -> list[int]:
        """Recover the message when only erasures occurred.

        ``erasure_positions`` index the stored layout; the values at those
        positions are ignored.  Succeeds whenever ``len(erasures) <= n-k``.
        """
        return self.decode(symbols, erasure_positions=erasure_positions,
                           max_errors=0)

    def decode(self, symbols: Sequence[int],
               erasure_positions: Sequence[int] = (),
               max_errors: int | None = None) -> list[int]:
        """Full errata decode; returns the ``k`` message symbols.

        Corrects ``e`` unknown errors plus ``f`` known erasures whenever
        ``2e + f <= n - k``.  ``max_errors`` optionally tightens the error
        budget (0 = erasures only).  Raises :class:`DecodingFailure` when
        the errata exceed the radius or the corrected word is inconsistent.
        """
        received = [int(s) for s in symbols]
        if len(received) != self.n:
            raise ConfigurationError(
                f"received word must have n={self.n} symbols")
        erasures = self._erasure_list(erasure_positions)
        for p in erasures:  # give erased symbols a defined received value
            received[p] = 0

        synd = self.syndromes(received)
        if all(s == 0 for s in synd):
            # The zero-filled word is already a codeword: either nothing was
            # wrong, or the erased symbols genuinely were zero.
            return received[:self.k]

        field = self.field
        erasure_degrees = [self._degree_of_position(p) for p in erasures]
        gamma = self._erasure_locator(tuple(erasure_degrees))
        synd_poly = Poly(synd, field)
        # Forney syndromes: T = Gamma * S mod x^parity; entries f..parity-1
        # form an error-only syndrome sequence for Berlekamp-Massey.
        forney = list((gamma * synd_poly).coeffs)[:self.parity]
        forney += [0] * (self.parity - len(forney))
        error_locator = _berlekamp_massey(forney[len(erasures):], field)

        error_budget = (self.parity - len(erasures)) // 2
        if max_errors is not None:
            error_budget = min(error_budget, max_errors)
        n_errors = error_locator.degree
        if n_errors > error_budget:
            raise DecodingFailure(
                f"estimated {n_errors} errors exceeds budget {error_budget}")

        error_degrees = self._chien_search(error_locator)
        if len(error_degrees) != n_errors:
            raise DecodingFailure("error locator does not split over GF(256)")

        errata_degrees = error_degrees + erasure_degrees
        magnitudes = self._forney(synd_poly, error_locator * gamma,
                                  errata_degrees)
        corrected = list(received)
        for degree, magnitude in zip(errata_degrees, magnitudes):
            corrected[self._position_of_degree(degree)] ^= magnitude
        if not self.is_codeword(corrected):
            raise DecodingFailure("corrected word fails syndrome check")
        return corrected[:self.k]

    def decode_many(self, words: np.ndarray,
                    erasure_positions: Sequence[int] = (),
                    max_errors: int | None = None) -> np.ndarray:
        """Decode many received words sharing one erasure set.

        Returns the (rows, k) message array whose row ``r`` is
        :meth:`decode` of ``words[r]``; the first failing row raises its
        error.  The shape and the erasure set are checked before any row.
        """
        received = np.ascontiguousarray(words, dtype=np.uint8)
        if received.ndim != 2 or received.shape[1] != self.n:
            raise ConfigurationError(
                f"words must have shape (rows, n={self.n}), "
                f"got {received.shape}")
        erasures = self._erasure_list(erasure_positions)
        out = np.empty((received.shape[0], self.k), dtype=np.uint8)
        for r, word in enumerate(received.tolist()):
            out[r] = self.decode(word, erasures, max_errors)
        return out

    # ------------------------------------------------------------------
    def _erasure_list(self, erasure_positions: Sequence[int]) -> list[int]:
        """Sorted distinct erasure positions, checked against the code."""
        erasures = sorted(set(int(p) for p in erasure_positions))
        if any(not 0 <= p < self.n for p in erasures):
            raise ConfigurationError("erasure positions out of range")
        if len(erasures) > self.parity:
            raise DecodingFailure(
                f"{len(erasures)} erasures exceed correction capability "
                f"{self.parity}")
        return erasures

    def _erasure_locator(self, erasure_degrees: tuple[int, ...]) -> Poly:
        """Gamma(x) = prod (1 + alpha^d x) over the erasure degrees.

        Cached per erasure set: a keystore decodes every chunk of a
        readout under one set, and a wearing bank's dead-share set
        changes rarely.
        """
        gamma = self._erasure_cache.get(erasure_degrees)
        if gamma is None:
            field = self.field
            gamma = Poly.one(field)
            for d in erasure_degrees:
                gamma = gamma * Poly([1, field.exp(d)], field)
            self._erasure_cache[erasure_degrees] = gamma
        return gamma

    def _chien_search(self, locator: Poly) -> list[int]:
        """Degrees d in [0, n) where locator(alpha^-d) == 0."""
        return np.flatnonzero(
            locator.eval_many(self._chien_points) == 0).tolist()

    def _forney(self, synd_poly: Poly, errata_locator: Poly,
                errata_degrees: list[int]) -> list[int]:
        """Errata magnitudes via Forney's formula.

        With syndromes starting at alpha^0 (b = 0), the magnitude at
        location X_j = alpha^d is ``X_j * Omega(X_j^-1) / Lambda'(X_j^-1)``
        where ``Omega = S * Lambda mod x^parity``.
        """
        field = self.field
        product = synd_poly * errata_locator
        omega = Poly(list(product.coeffs)[:self.parity], field)
        deriv = errata_locator.derivative()
        x_invs = np.array([field.pow(field.generator, -d)
                           for d in errata_degrees], dtype=np.uint8)
        denoms = deriv.eval_many(x_invs)
        if np.any(denoms == 0):
            raise DecodingFailure("Forney denominator is zero")
        omegas = omega.eval_many(x_invs)
        return [
            field.mul(field.exp(d), field.div(int(o), int(dn)))
            for d, o, dn in zip(errata_degrees, omegas, denoms)
        ]


def _berlekamp_massey(syndromes: list[int], field: GF256) -> Poly:
    """Minimal LFSR (error locator, lowest-degree-first) for a sequence."""
    locator = [1]
    prev = [1]
    for i, s in enumerate(syndromes):
        prev = [0] + prev  # prev *= x (lowest-degree-first storage)
        delta = s
        for j in range(1, len(locator)):
            if locator[j] and i - j >= 0:
                delta ^= field.mul(locator[j], syndromes[i - j])
        if delta == 0:
            continue
        if len(prev) > len(locator):
            new_locator = [field.mul(c, delta) for c in prev]
            inv_delta = field.inverse(delta)
            prev = [field.mul(c, inv_delta) for c in locator]
            locator = new_locator
        scaled = [field.mul(c, delta) for c in prev]
        locator = [
            (locator[j] if j < len(locator) else 0)
            ^ (scaled[j] if j < len(scaled) else 0)
            for j in range(max(len(locator), len(scaled)))
        ]
    return Poly(locator, field)
