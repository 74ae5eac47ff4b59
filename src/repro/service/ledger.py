"""The durable wear ledger: an append-only JSONL WAL plus snapshots.

Device wear is irreversible, so the service's accounting must be too: a
SIGKILL at any instant may lose an in-flight *response*, but never a
recorded *attempt*.  The ledger gets that with the classic write-ahead
discipline:

- every state-changing operation (``provision``, ``access``) is appended
  to ``wal.jsonl`` - one JSON object per line, with a strictly
  increasing ``seq`` - and fsynced *before* the wear engine executes it.
  Lines are canonical JSON (sorted keys, no spaces), written by the one
  encoder :data:`~repro.service.protocol.CANONICAL_JSON` that also
  writes protocol frames;
- a crash can tear at most the final line (one ``write`` syscall per
  batch); recovery detects the torn tail (no trailing newline, or an
  unparseable last line) and truncates it, exactly like the shard
  ``.tmp`` handling in the parallel campaign engine.  Damage anywhere
  else is *not* recoverable and raises
  :class:`~repro.errors.LedgerCorruptionError` - a limited-use service
  must refuse to serve off a wear history it cannot prove;
- periodic snapshots (``snapshot.json``, written atomically through
  :func:`repro.sim.checkpoint.save_checkpoint`) are **self-contained**:
  as of a known ``seq`` they carry every tenant's provision parameters,
  engine arrays, lifetimes and fault-RNG/injector state, so recovery
  restores the snapshot and replays only the records after it;
- a directory-scoped advisory ``flock`` makes the ledger single-writer:
  a second live instance opening the same directory is refused with
  :class:`~repro.errors.ConfigurationError` (two in-memory copies of
  one wear history would double-serve the same devices), and the lock
  dies with the process so a SIGKILL never wedges the directory.

Because a snapshot stands in for everything it covers, **segment
rotation** is sound: once a snapshot covers the active WAL,
:meth:`WearLedger.rotate_segment` seals it into
``archive/segment-<first>-<last>.jsonl`` and recovery is bounded by one
snapshot plus one active segment instead of the full history.  Only
the snapshot format this module writes (``meta["format"] == 2``) is
read back; any other is refused as corruption.

A failed WAL write stops the ledger: the batch's records may or may not
have reached the disk, so a later record could follow a gap recovery
refuses, and a snapshot would claim records that were lost.  The first
failure raises :class:`~repro.errors.LedgerWriteError`, and so does
every later append, snapshot and rotation, without touching a file.
"""

from __future__ import annotations

import json
import os
import re

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import (
    ConfigurationError,
    LedgerCorruptionError,
    LedgerWriteError,
)
from repro.obs.recorder import OBS
from repro.service.protocol import CANONICAL_JSON
from repro.sim.checkpoint import load_checkpoint, save_checkpoint

__all__ = ["WearLedger", "WAL_NAME", "SNAPSHOT_NAME", "LOCK_NAME",
           "ARCHIVE_DIR"]

WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
LOCK_NAME = "lock"
ARCHIVE_DIR = "archive"

#: ``meta["kind"]`` tag distinguishing service snapshots from campaign
#: checkpoints sharing the same on-disk schema.
_SNAPSHOT_KIND = "svc-snapshot"

#: ``meta["format"]`` of the self-contained snapshots this module writes.
_SNAPSHOT_FORMAT = 2

_SEGMENT_RE = re.compile(r"^segment-(\d{8})-(\d{8})\.jsonl$")


class WearLedger:
    """One service instance's durable wear history under ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.wal_path = os.path.join(directory, WAL_NAME)
        self.snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
        self.lock_path = os.path.join(directory, LOCK_NAME)
        self.archive_dir = os.path.join(directory, ARCHIVE_DIR)
        self._handle = None
        self._lock_handle = None
        self._next_seq = 0
        self._active_base = 0
        self._failure: LedgerWriteError | None = None

    @property
    def failure(self) -> LedgerWriteError | None:
        """The error of the WAL write that stopped the ledger, if any."""
        return self._failure

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended record will receive."""
        return self._next_seq

    @property
    def active_base(self) -> int:
        """The first sequence number held by the active WAL segment."""
        return self._active_base

    # ------------------------------------------------------------------
    # Single-writer guard
    def _acquire_lock(self) -> None:
        """Take the directory's exclusive advisory lock (idempotent).

        Two live service instances on one ledger would each hold their
        own in-memory wear state and double-spend the same devices, so
        the first ``replay``/``open_for_append`` flocks ``lock`` for the
        ledger's lifetime.  The lock dies with the process - a SIGKILL
        never wedges the directory.
        """
        if self._lock_handle is not None or fcntl is None:
            return
        handle = open(self.lock_path, "ab")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise ConfigurationError(
                f"wear ledger {self.directory} is already in use by a "
                f"live instance; refusing to double-serve its wear") from exc
        self._lock_handle = handle

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()
            self._lock_handle = None

    # ------------------------------------------------------------------
    # Append path (the hot path: one write + fsync per batch)
    def open_for_append(self) -> None:
        """Open the WAL for appending; recovery must have run first."""
        self._acquire_lock()
        if self._handle is None:
            self._handle = open(self.wal_path, "ab")

    def append_batch(self, records: list[dict]) -> list[int]:
        """Durably append ``records``, assigning consecutive seqs.

        The batch goes down in one buffered write and one fsync, so a
        kill can tear at most the final line - the case recovery
        repairs.  Returns the assigned sequence numbers.  Callers must
        only execute the recorded operations *after* this returns.
        A failed write, flush or fsync raises
        :class:`~repro.errors.LedgerWriteError` and stops the ledger.
        """
        self._check_writable()
        if self._handle is None:
            self.open_for_append()
        encode = CANONICAL_JSON.encode
        seqs = []
        lines = []
        for record in records:
            stamped = dict(record)
            stamped["seq"] = self._next_seq
            seqs.append(self._next_seq)
            self._next_seq += 1
            lines.append(encode(stamped))
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        try:
            self._handle.write(payload)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self._stop(exc) from exc
        if OBS.enabled:
            OBS.metrics.inc("svc.ledger_records", len(records))
        return seqs

    def append(self, record: dict) -> int:
        """Durably append one record; returns its seq."""
        return self.append_batch([record])[0]

    def _stop(self, exc: OSError) -> LedgerWriteError:
        """Refuse every later write after ``exc``; returns the error."""
        self._failure = LedgerWriteError(
            f"WAL write to {self.wal_path} failed: {exc}; the ledger "
            f"accepts no further writes")
        handle, self._handle = self._handle, None
        try:
            # Whatever the buffer still holds may reach the disk here;
            # recovery charges it, which is the safe direction.
            handle.close()
        except OSError:
            pass
        return self._failure

    def _check_writable(self) -> None:
        if self._failure is not None:
            raise LedgerWriteError(
                f"wear ledger {self.directory} stopped after a failed "
                f"WAL write") from self._failure

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._release_lock()

    # ------------------------------------------------------------------
    # Recovery path
    def replay(self) -> tuple[dict | None, list[dict]]:
        """Load the durable history: ``(snapshot_payload, wal_records)``.

        Truncates a torn trailing WAL record in place (returning the
        intact prefix) and raises
        :class:`~repro.errors.LedgerCorruptionError` on any other
        damage: mid-file garbage, missing ``seq``/``op`` fields, a
        non-contiguous sequence, a snapshot of another format, or an
        archive/snapshot/WAL combination whose coverage has a gap.  The
        returned records are the *active segment* only; after a rotation
        the self-contained snapshot covers everything archived.  Also
        primes the next append seq.
        """
        if self._handle is not None:
            raise ConfigurationError(
                "replay must run before the WAL is opened for append")
        self._acquire_lock()
        snapshot = self._load_snapshot()
        records = self._load_wal()
        segments = self._archived_segments()
        archived_end = segments[-1][1] if segments else -1
        base = records[0].get("seq") if records else None
        if records and type(base) is not int:
            raise LedgerCorruptionError(
                f"first WAL record of {self.wal_path} has no integer seq: "
                f"{records[0]!r}", path=self.wal_path)
        expected = base
        for record in records:
            if record.get("seq") != expected or "op" not in record:
                raise LedgerCorruptionError(
                    f"WAL record {expected} of {self.wal_path} is "
                    f"damaged or out of sequence: {record!r}",
                    path=self.wal_path, seq=expected)
            expected += 1

        # The snapshot covers everything <= last_seq (nothing without
        # one); the active segment must butt up against the archive with
        # no gap, so without a snapshot the WAL starts at seq 0.
        last_seq = -1
        if snapshot is not None:
            last_seq = int(snapshot["meta"].get("last_seq", -1))
        if not records:
            # Legal only when the archive ends exactly where the snapshot
            # does: a fresh ledger, or the rotation crash window.
            if archived_end != last_seq:
                raise LedgerCorruptionError(
                    f"no active WAL and the archive ends at seq "
                    f"{archived_end}, but the snapshot covers {last_seq}: "
                    f"durable history was lost",
                    path=self.wal_path, seq=last_seq)
            self._next_seq = last_seq + 1
            self._active_base = self._next_seq
            return snapshot, records
        last = expected - 1
        if base != archived_end + 1:
            raise LedgerCorruptionError(
                f"active WAL starts at seq {base} but the archive ends "
                f"at {archived_end}: records in between were lost",
                path=self.wal_path, seq=base)
        if last < last_seq:
            raise LedgerCorruptionError(
                f"snapshot covers seq {last_seq} but the WAL ends at "
                f"{last}: the WAL lost durable history",
                path=self.snapshot_path, seq=last_seq)
        if last_seq < base - 1:
            raise LedgerCorruptionError(
                f"snapshot covers only seq {last_seq} but the active WAL "
                f"starts at {base}: records in between were lost",
                path=self.snapshot_path, seq=last_seq)
        self._next_seq = last + 1
        self._active_base = base
        return snapshot, records

    def _load_snapshot(self) -> dict | None:
        try:
            payload = load_checkpoint(self.snapshot_path)
        except ConfigurationError as exc:
            raise LedgerCorruptionError(
                f"unreadable service snapshot: {exc}",
                path=self.snapshot_path) from exc
        if payload is None:
            return None
        if payload["meta"].get("kind") != _SNAPSHOT_KIND:
            raise LedgerCorruptionError(
                f"{self.snapshot_path} is not a service snapshot",
                path=self.snapshot_path)
        if payload["meta"].get("format") != _SNAPSHOT_FORMAT:
            raise LedgerCorruptionError(
                f"{self.snapshot_path} has snapshot format "
                f"{payload['meta'].get('format')!r}, not "
                f"{_SNAPSHOT_FORMAT}", path=self.snapshot_path)
        return payload

    def _load_wal(self) -> list[dict]:
        if not os.path.exists(self.wal_path):
            return []
        with open(self.wal_path, "rb") as handle:
            raw = handle.read()
        if not raw:
            return []
        lines = raw.split(b"\n")
        # A fully-written WAL ends with a newline, so the final split
        # element is empty; anything else is the torn tail a kill during
        # the batch write can leave.
        torn_tail = lines.pop() != b""
        records = []
        offset = 0
        for index, line in enumerate(lines):
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError) as exc:
                if index == len(lines) - 1 and not torn_tail:
                    # Unparseable *final* complete line: also torn (the
                    # newline of the previous batch survived, the body
                    # of the next did not finish).
                    torn_tail = True
                    break
                raise LedgerCorruptionError(
                    f"WAL line {index} of {self.wal_path} is damaged "
                    f"before the tail: {exc}",
                    path=self.wal_path, seq=index) from exc
            offset += len(line) + 1
        if torn_tail:
            os.truncate(self.wal_path, offset)
            if OBS.enabled:
                OBS.metrics.inc("svc.ledger_torn_tails")
                OBS.event("svc.ledger_truncated", path=self.wal_path,
                          offset=offset)
        return records

    # ------------------------------------------------------------------
    # Archived segments
    def _archived_segments(self) -> list[tuple[int, int, str]]:
        """Sealed segments as ``(first, last, path)``, validated contiguous."""
        if not os.path.isdir(self.archive_dir):
            return []
        segments = []
        for name in os.listdir(self.archive_dir):
            match = _SEGMENT_RE.match(name)
            if match is None:
                continue
            segments.append((int(match.group(1)), int(match.group(2)),
                             os.path.join(self.archive_dir, name)))
        segments.sort()
        expected = 0
        for first, last, path in segments:
            if first != expected or last < first:
                raise LedgerCorruptionError(
                    f"archived segment {path} starts at seq {first}, "
                    f"expected {expected}: the archive chain has a gap",
                    path=path, seq=first)
            expected = last + 1
        return segments

    def archived_records(self) -> list[dict]:
        """Parse every sealed segment, in order (no lock required).

        Sealed segments are immutable, so this is safe to call against a
        live ledger - the chaos harness uses it to audit the *full*
        history (``archived_records() + replay()[1]``) for invariants
        like at-most-once idempotency keys.
        """
        records: list[dict] = []
        for first, last, path in self._archived_segments():
            with open(path, "rb") as handle:
                raw = handle.read()
            expected = first
            for index, line in enumerate(raw.split(b"\n")):
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise LedgerCorruptionError(
                        f"sealed segment line {index} of {path} is "
                        f"damaged: {exc}", path=path, seq=expected) from exc
                if record.get("seq") != expected or "op" not in record:
                    raise LedgerCorruptionError(
                        f"sealed segment record {expected} of {path} is "
                        f"damaged or out of sequence: {record!r}",
                        path=path, seq=expected)
                records.append(record)
                expected += 1
            if expected != last + 1:
                raise LedgerCorruptionError(
                    f"sealed segment {path} ends at seq {expected - 1}, "
                    f"its name promises {last}", path=path, seq=expected)
        return records

    def rotate_segment(self) -> str | None:
        """Seal the active WAL into the archive; returns the segment path.

        Only legal immediately after a snapshot covering every appended
        record: rotation deletes nothing, but recovery stops replaying
        the sealed records, so the snapshot must stand in for them
        completely.  A no-op (returns ``None``) when the active segment
        is empty.
        """
        self._check_writable()
        if self._handle is None:
            raise ConfigurationError(
                "rotate_segment requires the WAL to be open for append")
        if self._active_base == self._next_seq:
            return None
        payload = load_checkpoint(self.snapshot_path)
        if payload is None or payload["meta"].get("kind") != _SNAPSHOT_KIND:
            raise ConfigurationError(
                "rotate_segment requires a service snapshot")
        meta = payload["meta"]
        if int(meta.get("last_seq", -1)) != self._next_seq - 1:
            raise ConfigurationError(
                f"rotate_segment requires the snapshot to cover seq "
                f"{self._next_seq - 1}, it covers {meta.get('last_seq')}")
        os.makedirs(self.archive_dir, exist_ok=True)
        segment = os.path.join(
            self.archive_dir,
            f"segment-{self._active_base:08d}-{self._next_seq - 1:08d}"
            f".jsonl")
        self._handle.close()
        os.replace(self.wal_path, segment)
        for directory in (self.archive_dir, self.directory):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._active_base = self._next_seq
        self._handle = open(self.wal_path, "ab")
        if OBS.enabled:
            OBS.metrics.inc("svc.segments_rotated")
            OBS.event("svc.segment_sealed", path=segment,
                      next_seq=self._next_seq)
        return segment

    # ------------------------------------------------------------------
    # Snapshots
    def write_snapshot(self, last_seq: int, tenants,
                       **meta_extra) -> None:
        """Atomically persist the hub's state as of ``last_seq``.

        ``meta_extra`` lands in the checkpoint's ``meta`` - the hub uses
        it for the retained idempotency responses.
        """
        self._check_writable()
        meta = {"kind": _SNAPSHOT_KIND, "last_seq": last_seq,
                "format": _SNAPSHOT_FORMAT}
        meta.update(meta_extra)
        save_checkpoint(self.snapshot_path, meta=meta, results=tenants)
        if OBS.enabled:
            OBS.metrics.inc("svc.snapshots")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WearLedger({self.directory!r}, next_seq={self._next_seq})"
