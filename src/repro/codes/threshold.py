"""Reed-Solomon-based (k, n) threshold sharing of byte-string secrets.

The paper's architectures spread a secret over ``n`` wearout devices and
require ``k`` survivors.  Device deaths are *erasures* (the architecture
knows which switches failed), so an (n, k) RS code gives the same
recover-from-any-k property as Shamir, plus genuine error correction when
some surviving cells return corrupted data.

Unlike Shamir, RS sharing is *not* information-theoretically hiding (it is
systematic: shares 0..k-1 are the secret itself).  Use
:mod:`repro.codes.shamir` when secrecy against partial capture matters and
this module when the goal is erasure tolerance - Section 4.1.4 uses the
schemes interchangeably for the degradation math, and so do the use-case
modules, which default to Shamir.
"""

from __future__ import annotations

import numpy as np

from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.shamir import Share
from repro.errors import ConfigurationError, InsufficientSharesError
from repro.gf.field import GF256, GF_RS

__all__ = ["rs_split_secret", "rs_recover_secret", "rs_recover_chunks"]

#: Memoized code instances.  Fault campaigns split and recover through
#: the same (n, k) code millions of times; rebuilding the generator
#: polynomial (O(parity^2) field muls) per call dominated the profile.
#: Codes are immutable, so sharing one instance per geometry is safe.
_code_cache: dict[tuple[int, int, int], ReedSolomonCode] = {}


def _rs_code(n: int, k: int, field: GF256) -> ReedSolomonCode:
    key = (n, k, id(field))
    code = _code_cache.get(key)
    if code is None:
        code = _code_cache[key] = ReedSolomonCode(n, k, field)
    return code


def rs_split_secret(secret: bytes, k: int, n: int,
                    field: GF256 = GF_RS) -> list[Share]:
    """Encode ``secret`` into ``n`` erasure-tolerant shares (threshold k).

    The secret is chunked column-wise into length-``k`` messages; share
    ``i`` holds symbol ``i`` of every chunk's codeword.  Shares reuse the
    :class:`~repro.codes.shamir.Share` container with 1-based indices.
    """
    if not 1 <= k <= n <= 255:
        raise ConfigurationError(f"need 1 <= k <= n <= 255, got k={k} n={n}")
    if not secret:
        raise ConfigurationError("secret must be non-empty")
    code = _rs_code(n, k, field)
    # Zero-pad to whole chunks; recovery strips the pad (or trims to an
    # explicit secret_len for secrets with trailing NULs).
    n_chunks = -(-len(secret) // k)
    padded = secret + b"\x00" * (n_chunks * k - len(secret))
    messages = np.frombuffer(padded, dtype=np.uint8).reshape(n_chunks, k)
    # Transpose to share-major so each share's payload is one contiguous
    # row (a column slice would copy per-byte on every tobytes call).
    codewords = np.ascontiguousarray(code.encode_many(messages).T)
    # Indices 1..n are valid by the range check above; skip the
    # validating __new__ (see the same fast path in shamir.split_secret).
    new = tuple.__new__
    return [new(Share, (i + 1, codewords[i].tobytes()))
            for i in range(n)]


def rs_recover_secret(shares: list[Share], k: int, n: int,
                      secret_len: int | None = None,
                      field: GF256 = GF_RS,
                      correct_errors: bool = False) -> bytes:
    """Recover the secret from any ``k`` (or more) of the ``n`` shares.

    Missing shares are treated as erasures.  With ``correct_errors``,
    *corrupted* shares (present but wrong - e.g. a decaying register
    returning flipped bits) are also corrected, as long as
    ``2 * errors + missing <= n - k``.  This is the practical advantage
    of RS sharing over Shamir, whose recovery silently yields a wrong
    secret when any contributing share is corrupt.

    ``secret_len`` trims padding; when omitted, trailing NUL padding of
    the final chunk is stripped.
    """
    if not 1 <= k <= n <= 255:
        raise ConfigurationError(f"need 1 <= k <= n <= 255, got k={k} n={n}")
    present: dict[int, bytes] = {}
    for share in shares:
        if not 1 <= share.index <= n:
            raise ConfigurationError(
                f"share index {share.index} outside 1..{n}")
        present[share.index - 1] = share.data
    secret = rs_recover_chunks(present, k, n, field=field,
                               correct_errors=correct_errors).tobytes()
    if secret_len is not None:
        if secret_len > len(secret):
            raise ConfigurationError(
                f"secret_len {secret_len} exceeds recovered {len(secret)}")
        return secret[:secret_len]
    return secret.rstrip(b"\x00") or b"\x00"


def rs_recover_chunks(present: dict[int, bytes], k: int, n: int,
                      field: GF256 = GF_RS,
                      correct_errors: bool = False) -> np.ndarray:
    """Decode the raw ``(n_chunks, k)`` message array, no padding trim.

    The bank keystore calls it directly when a readout's length differs
    from its stored share's; readouts of unequal lengths are rejected.
    """
    if len(present) < k:
        raise InsufficientSharesError(
            f"need {k} shares, got {len(present)}")
    lengths = {len(d) for d in present.values()}
    if len(lengths) != 1:
        raise ConfigurationError("shares have inconsistent lengths")
    n_chunks = lengths.pop()

    code = _rs_code(n, k, field)
    erasures = [i for i in range(n) if i not in present]
    # All chunks share one erasure set: one decode_many call, which is
    # code.decode on each chunk.
    words = np.zeros((n_chunks, n), dtype=np.uint8)
    for i, data in present.items():
        words[:, i] = np.frombuffer(data, dtype=np.uint8)
    return code.decode_many(words, erasures,
                            max_errors=None if correct_errors else 0)
