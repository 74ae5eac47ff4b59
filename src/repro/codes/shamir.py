"""Shamir's (k, n) threshold secret sharing over GF(256) (Section 4.1.4).

The secret is processed byte-wise: for each secret byte ``s`` a random
polynomial ``q(x) = s + a1*x + ... + a_{k-1}*x^{k-1}`` is drawn and the
share with index ``x`` receives ``q(x)``.  Any ``k`` shares recover the
secret by Lagrange interpolation at 0; any ``k - 1`` shares are
information-theoretically independent of it.

Share indices run 1..n (0 would leak the secret directly; 255 share
indices is the field-size ceiling).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from repro.errors import ConfigurationError, InsufficientSharesError
from repro.gf.field import GF256, GF_RS, ORDER

__all__ = ["Share", "split_secret", "recover_secret", "recover_from_pairs"]

MAX_SHARES = 255

#: Log-domain Lagrange weights at x = 0, keyed by (share-index tuple,
#: field id).  Recovery under wear reuses one index set for many reads;
#: the weights depend only on the indices, so recomputing them per call
#: is waste.  Weights are stored as exponents (an int64 column) so the
#: hot path is a single table gather instead of a full GF multiply.
_weight_cache: dict[tuple, np.ndarray] = {}

#: Log-domain Vandermonde matrices keyed by (n, k, field id): entry
#: ``[i, j] = j * log(x_{i+1}) mod ORDER``.  Splitting reduces to one
#: exp-gather matmul against this matrix; it depends only on the
#: geometry, which fabrication reuses for every copy.
_vander_cache: dict[tuple, np.ndarray] = {}

#: Plain-python log tables keyed by field id, for the small pure-int
#: weight computation on a :func:`recover_from_pairs` cache miss.
_log_list_cache: dict[int, list[int]] = {}


class Share(namedtuple("Share", ["index", "data"])):
    """One Shamir share: the evaluation point ``index`` and the data.

    A namedtuple rather than a frozen dataclass: fault campaigns build
    tens of thousands of shares per trial, and tuple construction is
    several times cheaper than the frozen-dataclass ``__setattr__``
    path while keeping immutability and field-wise equality.
    """

    __slots__ = ()

    def __new__(cls, index: int, data: bytes) -> "Share":
        if not 1 <= index <= MAX_SHARES:
            raise ConfigurationError(
                f"share index must be 1..{MAX_SHARES}, got {index}")
        return tuple.__new__(cls, (index, data))


def _draw_rows(k: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """The ``k - 1`` random coefficient rows of a ``length``-byte split."""
    return rng.integers(0, 256, size=(k - 1, length), dtype=np.uint8)


def split_secret(secret: bytes, k: int, n: int,
                 rng: np.random.Generator | None = None,
                 field: GF256 = GF_RS, *,
                 rows: np.ndarray | None = None) -> list[Share]:
    """Split ``secret`` into ``n`` shares, any ``k`` of which recover it.

    The random coefficients come from ``rng`` (a fresh generator when
    omitted), or are ``rows``: the ``(k - 1, len(secret))`` uint8 rows a
    caller drew earlier from ``rng`` with the same call, so the shares
    are the ones ``rng`` would have given then.  All byte positions
    share one coefficient matrix draw, so splitting is vectorized over
    the secret length.
    """
    if not 1 <= k <= n <= MAX_SHARES:
        raise ConfigurationError(
            f"need 1 <= k <= n <= {MAX_SHARES}, got k={k}, n={n}")
    if not secret:
        raise ConfigurationError("secret must be non-empty")

    secret_arr = np.frombuffer(secret, dtype=np.uint8)
    if rows is None:
        if rng is None:
            from repro.sim.rng import make_rng

            rng = make_rng()
        rows = _draw_rows(k, secret_arr.size, rng)
    elif rows.shape != (k - 1, secret_arr.size):
        raise ConfigurationError(
            f"rows must have shape {(k - 1, secret_arr.size)}, "
            f"got {rows.shape}")
    # coeffs[0] is the secret itself; rows 1..k-1 are uniform random.
    coeffs = np.empty((k, secret_arr.size), dtype=np.uint8)
    coeffs[0] = secret_arr
    coeffs[1:] = rows

    # Single-shot evaluation of every byte's polynomial at all n points:
    # share i is sum_j coeffs[j] * x_i^j, i.e. one GF matmul against a
    # cached log-Vandermonde matrix.  One big exp gather beats a Horner
    # loop whose k-1 iterations each pay several numpy dispatches.
    vkey = (n, k, id(field))
    lv = _vander_cache.get(vkey)
    if lv is None:
        lx = field._log[np.arange(1, n + 1, dtype=np.uint8)].astype(np.int64)
        lv = (lx[:, None] * np.arange(k, dtype=np.int64)[None, :]) % ORDER
        _vander_cache[vkey] = lv
    lc = field._log[coeffs].astype(np.int64)        # (k, len)
    terms = field._exp[lv[:, :, None] + lc[None, :, :]]  # (n, k, len)
    terms[:, lc < 0] = 0  # zero coefficients: mask the log sentinel
    acc = np.bitwise_xor.reduce(terms, axis=1)      # (n, len)
    # The indices 1..n are valid by the range check above, so skip the
    # validating __new__: fabrication splits one bank per copy and the
    # constructor shows up in campaign profiles.
    new = tuple.__new__
    return [new(Share, (i + 1, acc[i].tobytes())) for i in range(n)]


def recover_secret(shares: list[Share], k: int | None = None,
                   field: GF256 = GF_RS) -> bytes:
    """Recover the secret from at least ``k`` shares.

    ``k`` defaults to using every supplied share.  Supplying more than
    ``k`` shares is fine (the first ``k`` distinct indices are used);
    fewer raises :class:`InsufficientSharesError`.
    """
    if not shares:
        raise InsufficientSharesError("no shares supplied")
    distinct: dict[int, Share] = {}
    for share in shares:
        existing = distinct.get(share.index)
        if existing is not None and existing.data != share.data:
            raise ConfigurationError(
                f"conflicting shares for index {share.index}")
        distinct[share.index] = share
    if k is None:
        k = len(distinct)
    if len(distinct) < k:
        raise InsufficientSharesError(
            f"need {k} distinct shares, got {len(distinct)}")
    chosen = sorted(distinct.values(), key=lambda s: s.index)[:k]
    lengths = {len(s.data) for s in chosen}
    if len(lengths) != 1:
        raise ConfigurationError("shares have inconsistent lengths")

    return recover_from_pairs(tuple(s.index for s in chosen),
                              [s.data for s in chosen], field)


def recover_from_pairs(xs: tuple[int, ...], datas: list[bytes],
                       field: GF256 = GF_RS) -> bytes:
    """Lagrange recovery at x = 0 from pre-validated (index, data) pairs.

    ``xs`` must be distinct 1-based indices and ``datas`` equal-length
    payloads in the same order.  This is the validation-free core of
    :func:`recover_secret` for callers (the bank keystore) that already
    guarantee those invariants on every read.
    """
    # Lagrange basis at x = 0: L_i = prod_{j != i} x_j / (x_i ^ x_j),
    # computed in log space.  Indices are nonzero and distinct, so every
    # numerator factor and pairwise XOR is invertible.
    key = (xs, id(field))
    log_w = _weight_cache.get(key)
    if log_w is None:
        if len(_weight_cache) > 4096:
            _weight_cache.clear()
        # Weight misses happen every time wear changes the live set, so
        # the computation is done with plain ints: at the k ~ 10 scale a
        # python double loop beats a dozen tiny-array numpy dispatches.
        logt = _log_list_cache.get(id(field))
        if logt is None:
            logt = _log_list_cache[id(field)] = field._log.tolist()
        logs = [logt[x] for x in xs]
        total = sum(logs)
        log_w = np.empty((len(xs), 1), dtype=np.int64)
        for i, xi in enumerate(xs):
            den = 0
            for j, xj in enumerate(xs):
                if j != i:
                    den += logt[xi ^ xj]
            log_w[i, 0] = (total - logs[i] - den) % ORDER
        _weight_cache[key] = log_w
    datas_arr = np.frombuffer(b"".join(datas),
                              dtype=np.uint8).reshape(len(datas), -1)
    # The weights are nonzero by construction, so multiplying reduces to
    # one doubled-exp gather with only data zeros needing the mask.
    ld = field._log[datas_arr]
    terms = field._exp[ld + log_w]
    terms[ld < 0] = 0
    return np.bitwise_xor.reduce(terms, axis=0).tobytes()
