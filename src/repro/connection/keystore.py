"""Binding secret shares to the switches of a parallel bank.

Each copy of the limited-use connection holds an independent Shamir split
of the protected secret: share ``i`` sits behind switch ``i``.  Wherever
a readout can differ from the stored shares - through a fault hook, or
after a stored share was swapped - the answer is what the shares read
decode to, so fewer than ``k`` of them cannot recover the secret: there
the k-of-n semantics are cryptographic.  A store whose readouts cannot
differ returns its provisioned secret after the same k-of-n count check,
since any ``k`` of its shares provably interpolate to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codes.shamir import _draw_rows, recover_from_pairs, split_secret
from repro.codes.shamir16 import (
    MAX_SHARES16,
    Share16,
    _draw_rows16,
    recover_secret16,
    split_secret16,
)
from repro.codes.threshold import _rs_code, rs_recover_chunks, rs_split_secret
from repro.gf.field import GF_RS
from repro.errors import (
    ConfigurationError,
    DecodingFailure,
    InsufficientSharesError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.hooks import FaultHook

__all__ = ["BankKeyStore"]


class BankKeyStore:
    """The ``n`` shares of one parallel bank (threshold ``k``).

    For the unencoded architecture (k = 1) every "share" is the secret
    itself - any single live switch suffices, exactly as Figure 2c wires
    it.

    Encoded banks support two schemes:

    - ``"shamir"`` (default) - information-theoretically hiding; shards
      over GF(2^8) when n <= 255 and over GF(2^16) for the wide banks
      high-variation devices need (beta = 4 designs reach n > 1000);
    - ``"rs"`` - Reed-Solomon erasure coding (n <= 255): not hiding
      against partial capture, but tolerant of *corrupted* shares - a
      decaying register returning flipped bits is corrected as long as
      ``2 * errors <= n - k - missing``, where Shamir would silently
      reconstruct garbage.  Section 4.1.4 treats the schemes as
      interchangeable; this makes the actual trade-off explicit.

    ``bank_id`` tags errors with the copy this store belongs to, and
    ``fault_hook`` (a :class:`repro.faults.FaultModel`) sees every
    recovery's share readouts, in one batched ``on_shares_readout``
    call, so fault campaigns can corrupt or time out the register path;
    with no hook attached readout is a plain list index.  The batched
    call is bit-identical to consulting the model share by share, by the
    :mod:`repro.faults.injectors` substream contract (pinned in
    ``tests/differential``).

    The shares are built on their first readout (the ``_shares``
    property), for every scheme: most copies of a connection are never
    read, and a store with no fault hook never needs them.  A Shamir
    store draws its coefficient rows from ``rng`` at construction, with
    the call :func:`~repro.codes.shamir.split_secret` makes, so the
    caller's generator ends in the same state and a later build gives
    the shares an immediate split would have.
    """

    def __init__(self, secret: bytes, n: int, k: int,
                 rng: np.random.Generator, scheme: str = "shamir",
                 bank_id: int = 0,
                 fault_hook: "FaultHook | None" = None) -> None:
        if not secret:
            raise ConfigurationError("secret must be non-empty")
        if not 1 <= k <= n:
            raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
        if scheme not in ("shamir", "rs"):
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.n = n
        self.k = k
        self.scheme = scheme
        self.bank_id = bank_id
        self.fault_hook = fault_hook
        self._secret = secret
        self._secret_len = len(secret)
        self._rows: np.ndarray | None = None
        if k == 1:
            self._mode = "replicas"
        elif scheme == "rs":
            if n > 255:
                raise ConfigurationError(
                    "RS banks support at most 255 shares")
            self._mode = "rs"
        elif n <= 255:
            self._rows = _draw_rows(k, len(secret), rng)
            self._mode = "gf256"
        elif n <= MAX_SHARES16:
            self._rows = _draw_rows16(k, -(-len(secret) // 2), rng)
            self._mode = "gf65536"
        else:
            raise ConfigurationError(
                f"banks beyond {MAX_SHARES16} shares are not supported")
        self._shares_list: list | None = None
        # Memoized pristine recoveries keyed by picked-index tuple.
        # An entry is stored/served only when every readout returned the
        # *stored* share object (fault hooks hand back new objects
        # whenever they corrupt), so an identity check proves the inputs
        # - and hence the deterministic recovery - are unchanged since
        # the cached call.
        self._pristine: dict[tuple[int, ...], bytes] = {}
        # Whether the stored shares are the original split, so pristine
        # readouts recover the provisioned secret byte for byte and
        # interpolating is pure waste.  Token validation clears it the
        # moment a stored share object is swapped (tests corrupt stores
        # in place), falling back to honest per-tuple recovery.
        self._intact = True
        # Decoded RS message chunks, seeded when the shares are built:
        # RS correction of any decodable word yields the true message,
        # so recoveries only re-decode the chunks that corrupted
        # readouts actually touched.
        self._rs_plain: np.ndarray | None = None
        # Identity snapshot of the stored data objects, taken when the
        # shares are built.  A stored share swapped afterwards (tests
        # corrupt stores in place) invalidates every cache.
        self._stored_tokens: list | None = None
        # (n_chunks, n) matrix of the stored share symbols - the true
        # codewords, one chunk per row.  Built lazily by ``_recover_rs``
        # and invalidated together with ``_stored_tokens``.
        self._true_matrix: np.ndarray | None = None

    def _validate_tokens(self, pairs) -> None:
        """Drop the recovery caches if any stored share backing ``pairs``
        is no longer the object the caches were computed from."""
        tokens = self._stored_tokens
        shares = self._shares
        for i, _ in pairs:
            if shares[i].data is not tokens[i]:
                self._stored_tokens = [s.data for s in shares]
                self._pristine.clear()
                self._intact = False
                self._rs_plain = None
                self._true_matrix = None
                return

    @property
    def _shares(self) -> list:
        """The stored shares, built and token-guarded on first access.

        Built through this module's names for the split functions, so a
        wrapper installed on them sees every build.
        """
        shares = self._shares_list
        if shares is not None:
            return shares
        secret, k, n = self._secret, self.k, self.n
        if self._mode == "replicas":
            shares = self._shares_list = [secret] * n
            return shares
        if self._mode == "gf256":
            shares = split_secret(secret, k, n, rows=self._rows)
        elif self._mode == "gf65536":
            shares = split_secret16(secret, k, n, rows=self._rows)
        else:
            shares = rs_split_secret(secret, k, n)
            # Freshly split shares are authoritative, so the decoded
            # chunks are the (padded) source itself.
            n_chunks = -(-self._secret_len // k)
            padded = secret + b"\x00" * (n_chunks * k - self._secret_len)
            self._rs_plain = np.frombuffer(
                padded, dtype=np.uint8).reshape(n_chunks, k).copy()
        self._stored_tokens = [s.data for s in shares]
        self._shares_list = shares
        return shares

    def recover(self, live_indices: list[int]) -> bytes:
        """Recover the secret from the switches that closed.

        ``live_indices`` are 0-based switch positions.  Raises
        :class:`InsufficientSharesError` (with structured context: shares
        supplied vs threshold, bank id, timeout count) below the
        threshold.  The RS scheme uses *all* live shares and corrects
        corrupted ones within the code's radius; Shamir uses the first k.
        """
        if len(live_indices) < self.k:
            raise InsufficientSharesError(
                f"bank {self.bank_id}: only {len(live_indices)} live "
                f"switches, need k={self.k}",
                supplied=len(live_indices), required=self.k,
                bank_id=self.bank_id)
        if min(live_indices) < 0 or max(live_indices) >= self.n:
            raise ConfigurationError("switch index out of range")
        if self._shares_list is None and self.fault_hook is None:
            # Unbuilt shares cannot have been swapped, and unhooked
            # readouts are the stored shares: any k of them interpolate
            # to the provisioned secret, so none need building.
            return self._secret

        shares = self._shares
        datas = ([shares[i] for i in live_indices]
                 if self._mode == "replicas"
                 else [shares[i].data for i in live_indices])
        if self.fault_hook is not None:
            # One batched readout; None marks a share an injected
            # timeout lost this attempt (missing, not corrupt).
            datas = self.fault_hook.on_shares_readout(
                self.bank_id, live_indices, datas)
        if None in datas:
            live = [(i, data) for i, data in zip(live_indices, datas)
                    if data is not None]
        else:
            live = list(zip(live_indices, datas))
        timeouts = len(live_indices) - len(live)
        if len(live) < self.k:
            raise InsufficientSharesError(
                f"bank {self.bank_id}: {len(live_indices)} switches closed "
                f"but {timeouts} share readouts timed out, leaving "
                f"{len(live)} < k={self.k}",
                supplied=len(live), required=self.k, bank_id=self.bank_id,
                timeouts=timeouts)

        if self._mode == "replicas":
            return live[0][1]
        if self._mode == "rs":
            try:
                return self._recover_rs(live)
            except DecodingFailure as exc:
                raise DecodingFailure(
                    f"bank {self.bank_id}: {len(live)} live shares exceed "
                    f"the RS({self.n}, {self.k}) correction radius: {exc}",
                    bank_id=self.bank_id, n=self.n, k=self.k) from exc
        picked = live[:self.k]
        shares = self._shares
        pristine = True
        for i, data in picked:
            if data is not shares[i].data:
                pristine = False
                break
        if pristine:
            self._validate_tokens(picked)
            if self._intact:
                # Untouched readouts of an unmutated store: the
                # interpolation result is provably the provisioned
                # secret, byte for byte.
                return self._secret
            key = tuple([i for i, _ in picked])
            cached = self._pristine.get(key)
            if cached is not None:
                return cached
        if self._mode == "gf256":
            secret = recover_from_pairs(tuple([i + 1 for i, _ in picked]),
                                        [data for _, data in picked])
        else:
            chosen16 = [Share16(index=i + 1, data=data)
                        for i, data in picked]
            secret = recover_secret16(chosen16, k=self.k,
                                      secret_len=self._secret_len)
        if pristine:
            if len(self._pristine) > 256:
                self._pristine.clear()
            self._pristine[key] = secret
        return secret

    def _recover_rs(self, live: list[tuple[int, bytes]]) -> bytes:
        """RS recovery with chunk-level re-decode avoidance.

        The first successful decode caches the message array (RS
        correction of any decodable word yields the true message).
        Afterwards, a chunk needs re-decoding only if a corrupted
        readout (a data object that is not the stored share's) touched
        one of its symbols: an untouched chunk is a true codeword under
        erasures, whose decode provably returns the cached message and
        cannot fail while the erasure count stays within ``parity``
        (guaranteed here, since ``len(live) >= k`` was already checked).
        """
        if self._rs_plain is not None:
            self._validate_tokens(live)
        plain = self._rs_plain
        if plain is None:
            msgs = rs_recover_chunks(dict(live), self.k, self.n,
                                     correct_errors=True)
            self._rs_plain = msgs
            return msgs.tobytes()[:self._secret_len]
        shares = self._shares
        touched: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i, data in live:
            stored = shares[i].data
            if data is stored:
                continue
            if len(data) != len(stored):
                # Length drift: fall back to the validating full decode.
                return rs_recover_chunks(dict(live), self.k, self.n,
                                         correct_errors=True
                                         ).tobytes()[:self._secret_len]
            arr = np.frombuffer(data, dtype=np.uint8)
            diff = arr != np.frombuffer(stored, dtype=np.uint8)
            if diff.any():
                touched.append((i, arr, diff))
        if not touched:
            return plain.tobytes()[:self._secret_len]
        # Chunks touched by a corrupted readout, and each chunk's error
        # count e (corrupted symbols among the live shares).  With f
        # erasures, 2e + f <= parity puts the word inside the unique
        # decoding radius, where errors-and-erasures decoding provably
        # returns the true codeword - which is the cached message, so no
        # decode is needed.  Only chunks beyond the radius reach
        # ``decode_many``, whose failures and miscorrections there are
        # the answer this path must give.
        union = touched[0][2].copy()
        for _, _, diff in touched[1:]:
            union |= diff
        cc = np.flatnonzero(union)
        errors = np.zeros(cc.size, dtype=np.int64)
        for _, _, diff in touched:
            errors += diff[cc]
        live_set = {i for i, _ in live}
        erasures = [i for i in range(self.n) if i not in live_set]
        code = _rs_code(self.n, self.k, GF_RS)
        out = plain.copy()
        beyond = 2 * errors + len(erasures) > code.parity
        if beyond.any():
            bad = cc[beyond]
            tm = self._true_matrix
            if tm is None:
                tm = self._true_matrix = np.stack(
                    [np.frombuffer(s.data, dtype=np.uint8)
                     for s in shares], axis=1)
            words = tm[bad].copy()
            for i, arr, _ in touched:
                words[:, i] = arr[bad]
            if erasures:
                words[:, erasures] = 0
            out[bad] = code.decode_many(words, erasures, max_errors=None)
        return out.tobytes()[:self._secret_len]
