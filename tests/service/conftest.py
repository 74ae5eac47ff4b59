"""Shared fixtures for the service tests."""

import errno
import os

import pytest

from repro.service import ledger as ledger_module
from repro.service.ledger import WearLedger


class FailingWal:
    """A WAL file handle whose next write fails with ENOSPC once armed.

    The failing write puts nothing on disk, so a ledger recovered
    afterwards holds exactly what was durable before the failure.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self.armed = False

    def write(self, payload: bytes) -> int:
        if self.armed:
            self.armed = False
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._handle.write(payload)

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.fixture
def failing_wal(monkeypatch) -> list[FailingWal]:
    """Wrap the WAL of every ledger opened for append, in opening order."""
    handles: list[FailingWal] = []
    original = WearLedger.open_for_append

    def open_for_append(self) -> None:
        original(self)
        if not isinstance(self._handle, FailingWal):
            self._handle = FailingWal(self._handle)
            handles.append(self._handle)

    monkeypatch.setattr(WearLedger, "open_for_append", open_for_append)
    return handles


class FailingSnapshot:
    """Stands in for the ledger's ``save_checkpoint``: once armed, the
    next snapshot write fails with ENOSPC and writes nothing."""

    def __init__(self, save) -> None:
        self._save = save
        self.armed = False

    def __call__(self, path, meta, results) -> None:
        if self.armed:
            self.armed = False
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._save(path, meta=meta, results=results)


@pytest.fixture
def failing_snapshot(monkeypatch) -> FailingSnapshot:
    """Route every ledger snapshot write through one `FailingSnapshot`."""
    failing = FailingSnapshot(ledger_module.save_checkpoint)
    monkeypatch.setattr(ledger_module, "save_checkpoint", failing)
    return failing
