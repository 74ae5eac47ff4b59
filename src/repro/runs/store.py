"""SQLite-backed run registry: every invocation becomes a queryable row.

``runs.db`` holds two tables.  ``runs`` records one row per
campaign/bench/serve/chaos/experiment invocation - identity, parentage
(pipeline steps link to their pipeline row), the full resolved
parameters, seed, git provenance, host facts, timestamps, and the
outcome.  ``artifacts`` records every file a run produced, with its
SHA-256 digest, so a report or baseline can be verified byte-for-byte
against what the run actually wrote.

Concurrency model: the database runs in WAL journal mode with a generous
busy timeout, and every mutation is a single short transaction, so any
number of simultaneous CLI processes (fleet shards, parallel campaigns,
a pipeline and a report reader) can append without losing rows.  Run
ids are 128-bit random tokens; two racing writers can never collide.

Crash model: a run's row is inserted *before* its work starts (outcome
``running``) and finalized after.  A SIGKILL'd process can never update
its row, so ``resolve_interrupted`` sweeps same-host ``running`` rows
whose recorded pid is gone and marks them ``interrupted`` - the listing
a crashed run gets without ever having had the chance to report itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import sqlite3
import time

from repro.errors import ConfigurationError

__all__ = [
    "OUTCOMES",
    "RUNS_DB_ENV",
    "RunStore",
    "default_db_path",
    "params_digest",
    "sha256_file",
]

#: Environment override for the default database location.
RUNS_DB_ENV = "REPRO_RUNS_DB"

#: Legal ``runs.outcome`` values.
OUTCOMES = ("running", "ok", "failed", "interrupted")

#: Bumped when the table layout changes incompatibly.
_DB_SCHEMA_VERSION = 1

#: Seconds any statement may wait for another process's lock.
_BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id            TEXT PRIMARY KEY,
    parent_id     TEXT,
    subcommand    TEXT NOT NULL,
    params_json   TEXT NOT NULL,
    params_digest TEXT NOT NULL,
    seed          INTEGER,
    git_rev       TEXT,
    git_dirty     INTEGER,
    host          TEXT,
    pid           INTEGER,
    python        TEXT,
    numpy         TEXT,
    platform      TEXT,
    started_at    REAL NOT NULL,
    finished_at   REAL,
    outcome       TEXT NOT NULL DEFAULT 'running',
    error         TEXT,
    summary_json  TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_subcommand
    ON runs (subcommand, outcome, started_at);
CREATE INDEX IF NOT EXISTS idx_runs_parent ON runs (parent_id);
CREATE TABLE IF NOT EXISTS artifacts (
    run_id     TEXT NOT NULL REFERENCES runs (id),
    path       TEXT NOT NULL,
    sha256     TEXT,
    bytes      INTEGER,
    kind       TEXT NOT NULL DEFAULT 'file',
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_run ON artifacts (run_id);
"""


def default_db_path() -> str:
    """``$REPRO_RUNS_DB`` when set, else ``runs.db`` in the cwd."""
    return os.environ.get(RUNS_DB_ENV) or "runs.db"


def params_digest(params: dict) -> str:
    """Stable digest of a resolved parameter dict (step identity)."""
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def sha256_file(path: str, chunk_size: int = 1 << 20) -> str:
    """Streaming SHA-256 of one file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(chunk_size):
            digest.update(chunk)
    return digest.hexdigest()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class RunStore:
    """One connection to a run registry; safe across processes.

    Usable as a context manager; ``close()`` is idempotent.  All reads
    return plain dicts (``params``/``summary`` JSON already decoded).
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path or default_db_path()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        self._conn.row_factory = sqlite3.Row
        self._enable_wal()
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(_DB_SCHEMA_VERSION),))
            elif int(row["value"]) > _DB_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"run database {self.path!r} has schema "
                    f"{row['value']}, newer than this library "
                    f"({_DB_SCHEMA_VERSION}); upgrade repro")

    def _enable_wal(self) -> None:
        """Switch to WAL journaling, waiting out a concurrent first open.

        SQLite does not apply the busy timeout to ``journal_mode``: while
        another process creates or converts the same fresh file, the
        pragma fails at once with "database is locked", and a recorder
        would lose its row.  That one error is retried, with backoff,
        within the same budget every other statement gets.
        """
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        delay = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "database is locked" not in str(exc) \
                        or time.monotonic() + delay > deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes --------------------------------------------------------
    def begin_run(self, subcommand: str, params: dict, *,
                  seed: int | None = None,
                  parent_id: str | None = None,
                  provenance: dict | None = None) -> str:
        """Insert a ``running`` row; returns the new run id."""
        if provenance is None:
            from repro.runs.provenance import collect_provenance

            provenance = collect_provenance()
        run_id = secrets.token_hex(16)
        dirty = provenance.get("git_dirty")
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (id, parent_id, subcommand, "
                "params_json, params_digest, seed, git_rev, git_dirty, "
                "host, pid, python, numpy, platform, started_at, "
                "outcome) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                "'running')",
                (run_id, parent_id, subcommand,
                 json.dumps(params, sort_keys=True, default=str),
                 params_digest(params), seed,
                 provenance.get("git_rev"),
                 None if dirty is None else int(dirty),
                 provenance.get("host"), provenance.get("pid"),
                 provenance.get("python"), provenance.get("numpy"),
                 provenance.get("platform"), time.time()))
        return run_id

    def finish_run(self, run_id: str, outcome: str, *,
                   error: str | None = None,
                   summary: dict | None = None) -> None:
        """Finalize a run's outcome (and optional machine summary)."""
        if outcome not in OUTCOMES or outcome == "running":
            raise ConfigurationError(
                f"cannot finish a run with outcome {outcome!r}")
        summary_json = (json.dumps(summary, sort_keys=True, default=str)
                        if summary is not None else None)
        with self._conn:
            updated = self._conn.execute(
                "UPDATE runs SET outcome=?, error=?, finished_at=?, "
                "summary_json=COALESCE(?, summary_json) WHERE id=?",
                (outcome, error, time.time(), summary_json,
                 run_id)).rowcount
        if not updated:
            raise ConfigurationError(f"unknown run id {run_id!r}")

    def reopen_run(self, run_id: str) -> None:
        """Mark a finished run ``running`` again (pipeline resume)."""
        with self._conn:
            updated = self._conn.execute(
                "UPDATE runs SET outcome='running', error=NULL, "
                "finished_at=NULL, pid=? WHERE id=?",
                (os.getpid(), run_id)).rowcount
        if not updated:
            raise ConfigurationError(f"unknown run id {run_id!r}")

    def add_artifact(self, run_id: str, path: str, *,
                     digest: bool = True) -> dict:
        """Register one produced file (or directory) under a run.

        Files get a SHA-256 digest and byte size; directories are
        registered by path alone (``kind='dir'``).  A missing path is a
        caller bug and raises.
        """
        if os.path.isdir(path):
            kind, sha, size = "dir", None, None
        elif os.path.isfile(path):
            kind = "file"
            sha = sha256_file(path) if digest else None
            size = os.path.getsize(path)
        else:
            raise ConfigurationError(
                f"artifact path {path!r} does not exist")
        record = {"run_id": run_id, "path": os.path.abspath(path),
                  "sha256": sha, "bytes": size, "kind": kind}
        with self._conn:
            self._conn.execute(
                "INSERT INTO artifacts (run_id, path, sha256, bytes, "
                "kind, created_at) VALUES (?, ?, ?, ?, ?, ?)",
                (record["run_id"], record["path"], sha, size, kind,
                 time.time()))
        return record

    def resolve_interrupted(self) -> int:
        """Sweep dead same-host ``running`` rows to ``interrupted``.

        Only rows recorded by *this* host are judged (a pid is
        meaningless across machines); returns how many were swept.
        """
        import socket

        host = socket.gethostname()
        rows = self._conn.execute(
            "SELECT id, pid FROM runs WHERE outcome='running' AND "
            "host=?", (host,)).fetchall()
        dead = [row["id"] for row in rows
                if row["pid"] is not None and not _pid_alive(row["pid"])]
        if not dead:
            return 0
        with self._conn:
            for run_id in dead:
                self._conn.execute(
                    "UPDATE runs SET outcome='interrupted', "
                    "error='process died without finalizing the run', "
                    "finished_at=? WHERE id=? AND outcome='running'",
                    (time.time(), run_id))
        return len(dead)

    def gc(self, *, keep_days: float | None = None,
           keep_last: int | None = None,
           dry_run: bool = True) -> dict:
        """Prune old runs and artifact rows whose files are gone.

        Two independent sweeps, reported (and with ``dry_run=True``,
        *only* reported) in the returned dict:

        - **runs**: finished rows older than ``keep_days`` are deleted,
          except that the newest ``keep_last`` rows of each subcommand
          always survive.  With neither bound given no run is touched.
          Linked trees live or die together: a parent whose any child
          survives is kept, and a child whose parent survives is kept
          (deleting either alone would orphan the pipeline report).
        - **artifacts**: rows of *surviving* runs whose recorded path no
          longer exists on disk are pruned - the registry stops
          advertising files an operator already cleaned up.
        """
        if keep_days is not None and keep_days < 0:
            raise ConfigurationError("keep_days must be >= 0")
        if keep_last is not None and keep_last < 0:
            raise ConfigurationError("keep_last must be >= 0")
        now = time.time()
        rows = self._conn.execute(
            "SELECT id, parent_id, subcommand, outcome, started_at, "
            "finished_at FROM runs "
            "ORDER BY started_at DESC, id DESC").fetchall()
        deletable: set[str] = set()
        if keep_days is not None or keep_last is not None:
            cutoff = (None if keep_days is None
                      else now - keep_days * 86400.0)
            rank: dict[str, int] = {}
            for row in rows:
                if row["outcome"] == "running":
                    continue
                seen = rank.get(row["subcommand"], 0)
                rank[row["subcommand"]] = seen + 1
                if keep_last is not None and seen < keep_last:
                    continue
                stamp = row["finished_at"] or row["started_at"]
                if cutoff is not None and stamp >= cutoff:
                    continue
                deletable.add(row["id"])
            parent_of = {row["id"]: row["parent_id"] for row in rows}
            changed = True
            while changed:
                changed = False
                for run_id, parent_id in parent_of.items():
                    if parent_id is None or parent_id not in parent_of:
                        continue
                    if run_id not in deletable and parent_id in deletable:
                        deletable.discard(parent_id)
                        changed = True
                    elif run_id in deletable \
                            and parent_id not in deletable:
                        deletable.discard(run_id)
                        changed = True
        dead: list[dict] = []
        artifact_rows = self._conn.execute(
            "SELECT rowid, run_id, path, kind FROM artifacts").fetchall()
        for row in artifact_rows:
            if row["run_id"] in deletable:
                continue
            if not os.path.exists(row["path"]):
                dead.append({"rowid": row["rowid"], "path": row["path"],
                             "run_id": row["run_id"]})
        deleted_artifact_rows = 0
        if not dry_run:
            with self._conn:
                for run_id in deletable:
                    deleted_artifact_rows += self._conn.execute(
                        "DELETE FROM artifacts WHERE run_id=?",
                        (run_id,)).rowcount
                    self._conn.execute("DELETE FROM runs WHERE id=?",
                                       (run_id,))
                for entry in dead:
                    self._conn.execute(
                        "DELETE FROM artifacts WHERE rowid=?",
                        (entry["rowid"],))
        else:
            for run_id in deletable:
                deleted_artifact_rows += self._conn.execute(
                    "SELECT COUNT(*) AS n FROM artifacts WHERE run_id=?",
                    (run_id,)).fetchone()["n"]
        return {
            "dry_run": dry_run,
            "examined": len(rows),
            "deleted_runs": sorted(deletable),
            "deleted_artifact_rows": deleted_artifact_rows,
            "dead_artifacts": [
                {"path": entry["path"], "run_id": entry["run_id"]}
                for entry in dead],
        }

    # -- reads ---------------------------------------------------------
    @staticmethod
    def _decode(row: sqlite3.Row) -> dict:
        record = dict(row)
        record["params"] = json.loads(record.pop("params_json"))
        summary = record.pop("summary_json", None)
        record["summary"] = json.loads(summary) if summary else None
        if record.get("git_dirty") is not None:
            record["git_dirty"] = bool(record["git_dirty"])
        return record

    def get_run(self, run_id: str) -> dict:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id=?", (run_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown run id {run_id!r}")
        return self._decode(row)

    def find_run(self, prefix: str) -> dict:
        """Resolve a run by unique id prefix (CLI convenience)."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE id LIKE ? ORDER BY started_at",
            (prefix + "%",)).fetchall()
        if not rows:
            raise ConfigurationError(f"no run matches id {prefix!r}")
        if len(rows) > 1:
            ids = ", ".join(row["id"][:12] for row in rows[:5])
            raise ConfigurationError(
                f"run id prefix {prefix!r} is ambiguous ({ids}...)")
        return self._decode(rows[0])

    def list_runs(self, *, subcommand: str | None = None,
                  outcome: str | None = None,
                  parent_id: str | None = None,
                  limit: int = 50) -> list[dict]:
        """Most-recent-first run rows, optionally filtered."""
        clauses, params = [], []
        if subcommand is not None:
            clauses.append("subcommand=?")
            params.append(subcommand)
        if outcome is not None:
            clauses.append("outcome=?")
            params.append(outcome)
        if parent_id is not None:
            clauses.append("parent_id=?")
            params.append(parent_id)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs {where} "
            f"ORDER BY started_at DESC, id DESC LIMIT ?",
            (*params, limit)).fetchall()
        return [self._decode(row) for row in rows]

    def children(self, parent_id: str) -> list[dict]:
        """A pipeline's step runs, oldest first."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE parent_id=? "
            "ORDER BY started_at, id", (parent_id,)).fetchall()
        return [self._decode(row) for row in rows]

    def artifacts(self, run_id: str) -> list[dict]:
        rows = self._conn.execute(
            "SELECT * FROM artifacts WHERE run_id=? ORDER BY created_at",
            (run_id,)).fetchall()
        return [dict(row) for row in rows]

    def latest_run(self, subcommand: str, *, outcome: str | None = "ok",
                   host: str | None = None,
                   exclude: str | None = None,
                   params_subset: dict | None = None) -> dict | None:
        """Most recent matching run, or ``None``.

        ``outcome=None`` matches any outcome; ``params_subset`` filters
        on decoded params equality per key (e.g. ``{"scale": "smoke"}``
        finds comparable bench runs).
        """
        clauses = ["subcommand=?"]
        params: list = [subcommand]
        if outcome is not None:
            clauses.append("outcome=?")
            params.append(outcome)
        if host is not None:
            clauses.append("host=?")
            params.append(host)
        if exclude is not None:
            clauses.append("id!=?")
            params.append(exclude)
        rows = self._conn.execute(
            f"SELECT * FROM runs WHERE {' AND '.join(clauses)} "
            f"ORDER BY started_at DESC, id DESC", params).fetchall()
        for row in rows:
            record = self._decode(row)
            if params_subset and any(
                    record["params"].get(key) != value
                    for key, value in params_subset.items()):
                continue
            return record
        return None
