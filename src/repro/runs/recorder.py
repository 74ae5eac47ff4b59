"""``RunRecorder``: the context manager that turns work into a run row.

Wrap any invocation::

    with RunRecorder("bench", params, db_path=path, seed=0) as run:
        report = run_bench_suite(...)
        run.add_artifact(out_path)
        run.set_summary({"workloads": ...})

The row is inserted (outcome ``running``) on entry, so even a SIGKILL'd
process leaves a record; on exit the outcome is finalized: ``ok`` on a
clean exit, ``interrupted`` on :class:`KeyboardInterrupt`/``SystemExit``
and ``failed`` on any other exception (with a one-line error summary).
The wrapped exception always propagates - recording observes work, it
never swallows it.

Recording is also *optional by construction*: ``RunRecorder(...,
enabled=False)`` becomes inert (``add_artifact``/``set_summary`` are
no-ops and ``run_id`` is ``None``), so call sites never need a
conditional around the ``with`` block.  A registry that cannot be
opened (read-only filesystem, for instance) degrades to the same inert
recorder with a warning on stderr rather than failing the run itself.
"""

from __future__ import annotations

import sys

from repro.runs.store import RunStore

__all__ = ["RunRecorder"]


class RunRecorder:
    """Record one invocation (and its artifacts) in the run registry."""

    def __init__(self, subcommand: str, params: dict, *,
                 db_path: str | None = None,
                 seed: int | None = None,
                 parent_id: str | None = None,
                 store: RunStore | None = None,
                 enabled: bool = True) -> None:
        self.subcommand = subcommand
        self.params = params
        self.seed = seed
        self.parent_id = parent_id
        self.db_path = db_path
        self.run_id: str | None = None
        self._store = store
        self._owns_store = store is None
        self._enabled = enabled
        self._summary: dict | None = None
        self._failure: str | None = None

    # -- context protocol ----------------------------------------------
    def __enter__(self) -> "RunRecorder":
        if not self._enabled:
            return self
        try:
            if self._store is None:
                self._store = RunStore(self.db_path)
            self.run_id = self._store.begin_run(
                self.subcommand, self.params, seed=self.seed,
                parent_id=self.parent_id)
        except Exception as exc:  # noqa: BLE001 - recording is best-effort
            print(f"warning: run recording disabled: {exc}",
                  file=sys.stderr)
            if self._owns_store and self._store is not None:
                self._store.close()
            self._store = None
            self._enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._enabled or self._store is None:
            return False
        if exc_type is None:
            if self._failure is not None:
                outcome, error = "failed", self._failure
            else:
                outcome, error = "ok", None
        elif issubclass(exc_type, (KeyboardInterrupt, SystemExit)):
            outcome, error = "interrupted", f"{exc_type.__name__}: {exc}"
        else:
            outcome, error = "failed", f"{exc_type.__name__}: {exc}"
        try:
            self._store.finish_run(self.run_id, outcome, error=error,
                                   summary=self._summary)
        except Exception as final_exc:  # noqa: BLE001
            print(f"warning: could not finalize run {self.run_id}: "
                  f"{final_exc}", file=sys.stderr)
        finally:
            if self._owns_store:
                self._store.close()
                self._store = None
        return False  # never swallow the wrapped exception

    # -- in-flight API -------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def failure(self) -> str | None:
        """The declared failure, when :meth:`record_failure` was called."""
        return self._failure

    @property
    def summary(self) -> dict | None:
        """The summary attached by :meth:`set_summary`, if any."""
        return self._summary

    def child(self, subcommand: str, params: dict, *,
              seed: int | None = None) -> "RunRecorder":
        """A recorder for one sub-unit of this run.

        Shares the open store and links the child row to this run, so
        e.g. each figure of an ``experiments`` invocation gets its own
        row under the invocation's.  Inert when this recorder is.
        """
        return RunRecorder(subcommand, params, seed=seed,
                           parent_id=self.run_id, store=self._store,
                           enabled=self._enabled and self._store is not None)

    def add_artifact(self, path: str, *, digest: bool = True) -> None:
        """Register a produced file/directory; inert when disabled."""
        if not self._enabled or self._store is None:
            return
        try:
            self._store.add_artifact(self.run_id, path, digest=digest)
        except Exception as exc:  # noqa: BLE001 - best-effort
            print(f"warning: could not register artifact {path!r}: "
                  f"{exc}", file=sys.stderr)

    def set_summary(self, summary: dict) -> None:
        """Attach a compact machine-readable result summary."""
        if self._enabled:
            self._summary = summary

    def record_failure(self, error: str) -> None:
        """Mark the run ``failed`` even if the block exits cleanly.

        For invocations whose failure is an exit code, not an
        exception - a fault campaign with ceiling violations, a bench
        run that tripped a regression gate.
        """
        if self._enabled:
            self._failure = error
