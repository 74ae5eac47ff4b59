"""Binding secret shares to the switches of a parallel bank.

Each copy of the limited-use connection holds an independent Shamir split
of the protected secret: share ``i`` sits behind switch ``i``.  A store
reads by one rule: its shares never change once built.  A readout that
is its stored share object reads as the secret; every other readout - a
fault hook's corrupted or copied bytes - is decoded, so fewer than ``k``
live shares cannot recover the secret: there the k-of-n semantics are
cryptographic.  A store with no fault hook reads its shares as stored,
so it returns its provisioned secret after the same k-of-n count check,
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

    Readouts follow the module's rule.  With no hook, ``recover``
    answers with the secret once the count and index checks pass.  A
    hooked readout that *is* its stored share object reads as the
    secret; every other readout is decoded: Shamir interpolates the
    first k live shares, and RS decodes only the chunks that lie beyond
    its unique-decoding radius.

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

    @property
    def _shares(self) -> list:
        """The stored shares, built on first access and never changed.

        Built through this module's names for the split functions, so a
        wrapper installed on them sees every build.
        """
        shares = self._shares_list
        if shares is not None:
            return shares
        secret, k, n = self._secret, self.k, self.n
        if self._mode == "replicas":
            shares = [secret] * n
        elif self._mode == "gf256":
            shares = split_secret(secret, k, n, rows=self._rows)
        elif self._mode == "gf65536":
            shares = split_secret16(secret, k, n, rows=self._rows)
        else:
            shares = rs_split_secret(secret, k, n)
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
        if self.fault_hook is None:
            # Unhooked readouts are the stored shares, and any k of them
            # interpolate to the provisioned secret: none need building.
            return self._secret

        shares = self._shares
        datas = ([shares[i] for i in live_indices]
                 if self._mode == "replicas"
                 else [shares[i].data for i in live_indices])
        # One batched readout; None marks a share an injected timeout
        # lost this attempt (missing, not corrupt).
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
        for i, data in picked:
            if data is not shares[i].data:
                break
        else:
            # Every readout is its stored share, which never changes
            # once built: they interpolate to the provisioned secret.
            return self._secret
        if self._mode == "gf256":
            return recover_from_pairs(tuple([i + 1 for i, _ in picked]),
                                      [data for _, data in picked])
        return recover_secret16([Share16(index=i + 1, data=data)
                                 for i, data in picked],
                                k=self.k, secret_len=self._secret_len)

    def _recover_rs(self, live: list[tuple[int, bytes]]) -> bytes:
        """RS recovery that decodes only the chunks beyond the radius.

        The stored shares never change once built, so a readout that
        equals its stored share is a true symbol, and each chunk's error
        count e is the number of live readouts that differ from theirs
        there.  With f erasures, 2e + f <= parity puts the word inside
        the unique decoding radius, where errors-and-erasures decoding
        provably returns the true codeword, whose message is the padded
        secret.  Only chunks beyond the radius reach ``decode_many``,
        whose failures and miscorrections there are the answer this
        path must give.
        """
        shares = self._shares
        touched: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i, data in live:
            stored = shares[i].data
            if data is stored:
                continue
            if len(data) != len(stored):
                # Length drift: the validating full decode rejects it.
                return rs_recover_chunks(dict(live), self.k, self.n,
                                         correct_errors=True
                                         ).tobytes()[:self._secret_len]
            arr = np.frombuffer(data, dtype=np.uint8)
            diff = arr != np.frombuffer(stored, dtype=np.uint8)
            if diff.any():
                touched.append((i, arr, diff))
        if not touched:
            return self._secret
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
        beyond = 2 * errors + len(erasures) > code.parity
        if not beyond.any():
            return self._secret
        bad = cc[beyond]
        n_chunks = len(shares[0].data)
        padded = self._secret.ljust(n_chunks * self.k, b"\x00")
        out = np.frombuffer(padded, dtype=np.uint8).reshape(
            n_chunks, self.k).copy()
        words = np.stack([np.frombuffer(s.data, dtype=np.uint8)[bad]
                          for s in shares], axis=1)
        for i, arr, _ in touched:
            words[:, i] = arr[bad]
        if erasures:
            words[:, erasures] = 0
        out[bad] = code.decode_many(words, erasures, max_errors=None)
        return out.tobytes()[:self._secret_len]
