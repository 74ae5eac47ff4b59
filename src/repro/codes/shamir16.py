"""Shamir (k, n) sharing over GF(2^16): up to 65,535 shares.

Same construction as :mod:`repro.codes.shamir` with 16-bit symbols.
Secrets of odd byte length are zero-padded to a whole number of symbols;
pass ``secret_len`` at recovery to strip the pad exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, InsufficientSharesError
from repro.gf.field16 import GF65536, gf65536

__all__ = ["Share16", "split_secret16", "recover_secret16", "MAX_SHARES16"]

MAX_SHARES16 = 65_535


@dataclass(frozen=True)
class Share16:
    """One wide share: evaluation point ``index`` (1..65535) and data."""

    index: int
    data: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.index <= MAX_SHARES16:
            raise ConfigurationError(
                f"share index must be 1..{MAX_SHARES16}, got {self.index}")
        if len(self.data) % 2:
            raise ConfigurationError(
                "16-bit share data must have even byte length")


def _to_symbols(secret: bytes) -> np.ndarray:
    if len(secret) % 2:
        secret += b"\x00"
    return np.frombuffer(secret, dtype=">u2").astype(np.uint16)


def _draw_rows16(k: int, symbols: int,
                rng: np.random.Generator) -> np.ndarray:
    """The ``k - 1`` random coefficient rows of a ``symbols``-symbol split."""
    return rng.integers(0, 1 << 16, size=(k - 1, symbols),
                        dtype=np.uint32).astype(np.uint16)


def split_secret16(secret: bytes, k: int, n: int,
                   rng: np.random.Generator | None = None,
                   field: GF65536 | None = None, *,
                   rows: np.ndarray | None = None) -> list[Share16]:
    """Split ``secret`` into ``n`` shares with threshold ``k``.

    ``rows`` are the ``(k - 1, symbols)`` uint16 coefficient rows a
    caller drew earlier from ``rng`` with the same call, as for
    :func:`repro.codes.shamir.split_secret`.
    """
    if not 1 <= k <= n <= MAX_SHARES16:
        raise ConfigurationError(
            f"need 1 <= k <= n <= {MAX_SHARES16}, got k={k}, n={n}")
    if not secret:
        raise ConfigurationError("secret must be non-empty")
    field = field or gf65536()

    symbols = _to_symbols(secret)
    if rows is None:
        if rng is None:
            from repro.sim.rng import make_rng

            rng = make_rng()
        rows = _draw_rows16(k, symbols.size, rng)
    elif rows.shape != (k - 1, symbols.size):
        raise ConfigurationError(
            f"rows must have shape {(k - 1, symbols.size)}, "
            f"got {rows.shape}")
    coeffs = np.empty((k, symbols.size), dtype=np.uint16)
    coeffs[0] = symbols
    coeffs[1:] = rows

    shares = []
    for x in range(1, n + 1):
        acc = np.zeros(symbols.size, dtype=np.uint16)
        for row in coeffs[::-1]:
            acc = field.mul_vec(acc, np.uint16(x)) ^ row
        shares.append(Share16(index=x,
                              data=acc.astype(">u2").tobytes()))
    return shares


def recover_secret16(shares: list[Share16], k: int | None = None,
                     secret_len: int | None = None,
                     field: GF65536 | None = None) -> bytes:
    """Recover the secret from at least ``k`` distinct shares."""
    if not shares:
        raise InsufficientSharesError("no shares supplied")
    field = field or gf65536()
    distinct: dict[int, Share16] = {}
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

    xs = [s.index for s in chosen]
    size = lengths.pop() // 2
    acc = np.zeros(size, dtype=np.uint16)
    for i, share in enumerate(chosen):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = field.mul(num, xj)
            den = field.mul(den, xs[i] ^ xj)
        weight = field.div(num, den)
        data = np.frombuffer(share.data, dtype=">u2").astype(np.uint16)
        acc ^= field.mul_vec(data, np.uint16(weight))
    secret = acc.astype(">u2").tobytes()
    if secret_len is not None:
        if secret_len > len(secret):
            raise ConfigurationError(
                f"secret_len {secret_len} exceeds recovered {len(secret)}")
        secret = secret[:secret_len]
    return secret
