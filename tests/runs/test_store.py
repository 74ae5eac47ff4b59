"""Run-registry store tests: schema, queries, concurrency, crash-safety."""

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.runs.store import OUTCOMES, RunStore, params_digest, sha256_file

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def store(tmp_path):
    with RunStore(str(tmp_path / "runs.db")) as opened:
        yield opened


class TestBasics:
    def test_begin_finish_roundtrip(self, store):
        run_id = store.begin_run("bench", {"scale": "tiny"}, seed=7)
        row = store.get_run(run_id)
        assert row["outcome"] == "running"
        assert row["params"] == {"scale": "tiny"}
        assert row["seed"] == 7
        assert row["pid"] == os.getpid()
        store.finish_run(run_id, "ok", summary={"workloads": {}})
        row = store.get_run(run_id)
        assert row["outcome"] == "ok"
        assert row["summary"] == {"workloads": {}}
        assert row["finished_at"] >= row["started_at"]

    def test_run_ids_are_distinct_tokens(self, store):
        ids = {store.begin_run("bench", {}) for _ in range(20)}
        assert len(ids) == 20
        assert all(len(run_id) == 32 for run_id in ids)

    def test_finish_refuses_running_and_unknown(self, store):
        run_id = store.begin_run("bench", {})
        with pytest.raises(ConfigurationError):
            store.finish_run(run_id, "running")
        with pytest.raises(ConfigurationError):
            store.finish_run("nope", "ok")

    def test_outcomes_constant(self):
        assert OUTCOMES == ("running", "ok", "failed", "interrupted")

    def test_artifact_digest_and_dir(self, store, tmp_path):
        run_id = store.begin_run("bench", {})
        artifact = tmp_path / "report.json"
        artifact.write_text('{"a": 1}\n')
        record = store.add_artifact(run_id, str(artifact))
        assert record["sha256"] == sha256_file(str(artifact))
        assert record["bytes"] == artifact.stat().st_size
        directory = tmp_path / "ledger"
        directory.mkdir()
        store.add_artifact(run_id, str(directory))
        kinds = {a["kind"] for a in store.artifacts(run_id)}
        assert kinds == {"file", "dir"}

    def test_missing_artifact_raises(self, store):
        run_id = store.begin_run("bench", {})
        with pytest.raises(ConfigurationError):
            store.add_artifact(run_id, "/no/such/file.json")

    def test_find_run_prefix(self, store):
        run_id = store.begin_run("bench", {})
        assert store.find_run(run_id[:8])["id"] == run_id
        with pytest.raises(ConfigurationError):
            store.find_run("zz-no-such")

    def test_latest_run_filters(self, store):
        old = store.begin_run("bench", {"scale": "tiny"})
        store.finish_run(old, "ok")
        time.sleep(0.01)
        failed = store.begin_run("bench", {"scale": "tiny"})
        store.finish_run(failed, "failed", error="boom")
        assert store.latest_run("bench")["id"] == old
        assert store.latest_run("bench", outcome=None)["id"] == failed
        assert store.latest_run("bench", exclude=old,
                                outcome="ok") is None
        assert store.latest_run(
            "bench", params_subset={"scale": "smoke"}) is None

    def test_params_digest_is_order_insensitive(self):
        assert params_digest({"a": 1, "b": 2}) == \
            params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_newer_schema_refused(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value='99' "
                         "WHERE key='schema_version'")
        conn.close()
        with pytest.raises(ConfigurationError, match="newer"):
            RunStore(path)


def _record_one(path: str, index: int) -> None:
    with RunStore(path) as store:
        run_id = store.begin_run("bench", {"writer": index}, seed=index)
        store.finish_run(run_id, "ok", summary={"writer": index})


def _first_opens_in_lockstep(root: str, index: int, rounds: int,
                             interval: float, ready, go) -> None:
    """Record one row per round into a fresh ``round-<r>.db``; every
    writer is released onto round ``r`` at the same shared instant."""
    ready.put(index)
    start = go.get(timeout=60)
    for round_index in range(rounds):
        release = start + round_index * interval
        pause = release - time.time() - 0.005
        if pause > 0:
            time.sleep(pause)
        while time.time() < release:  # spin the last few ms: tight release
            pass
        path = os.path.join(root, f"round-{round_index}.db")
        with RunStore(path) as store:
            run_id = store.begin_run("bench", {"writer": index},
                                     seed=index, provenance={})
            store.finish_run(run_id, "ok")


class TestConcurrency:
    def test_simultaneous_first_opens_lose_no_rows(self, tmp_path):
        """Writers released together onto a database that does not exist
        yet all record: the WAL switch of one waits out the others'
        first open instead of failing with "database is locked"."""
        writers, rounds, interval = 4, 8, 0.25
        context = multiprocessing.get_context("spawn")
        ready, go = context.Queue(), context.Queue()
        procs = [context.Process(target=_first_opens_in_lockstep,
                                 args=(str(tmp_path), index, rounds,
                                       interval, ready, go),
                                 daemon=True)
                 for index in range(writers)]
        for proc in procs:
            proc.start()
        for _ in procs:
            ready.get(timeout=60)
        start = time.time() + 0.05
        for _ in procs:
            go.put(start)
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * writers
        for round_index in range(rounds):
            with RunStore(str(tmp_path / f"round-{round_index}.db")) \
                    as store:
                rows = store.list_runs(subcommand="bench", limit=100)
            assert sorted(row["params"]["writer"] for row in rows) \
                == list(range(writers)), f"round {round_index} lost rows"

    def test_simultaneous_writers_lose_no_rows(self, tmp_path):
        """Two (and more) simultaneous invocations each get their own
        row with a distinct id - the WAL + busy-timeout contract."""
        path = str(tmp_path / "runs.db")
        RunStore(path).close()
        context = multiprocessing.get_context("spawn")
        writers = 8
        procs = [context.Process(target=_record_one, args=(path, index))
                 for index in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        with RunStore(path) as store:
            rows = store.list_runs(subcommand="bench", limit=100)
        assert len(rows) == writers
        assert len({row["id"] for row in rows}) == writers
        assert sorted(row["params"]["writer"] for row in rows) == \
            list(range(writers))
        assert all(row["outcome"] == "ok" for row in rows)


_CRASH_CHILD = """\
import sys
from repro.runs.store import RunStore
with RunStore(sys.argv[1]) as store:
    store.begin_run("faults", {"trials": 100}, seed=3)
print("STARTED", flush=True)
import time
time.sleep(60)
"""


class TestCrashSafety:
    def test_sigkilled_run_is_listed_interrupted(self, tmp_path):
        """A SIGKILL'd process can't finalize its row; the next reader
        sweeps it to ``interrupted``."""
        path = str(tmp_path / "runs.db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", _CRASH_CHILD, path],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert proc.stdout.readline().strip() == "STARTED"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
        with RunStore(path) as store:
            row = store.list_runs(subcommand="faults")[0]
            assert row["outcome"] == "running"  # crash left it dangling
            assert store.resolve_interrupted() == 1
            row = store.list_runs(subcommand="faults")[0]
        assert row["outcome"] == "interrupted"
        assert "died" in row["error"]

    def test_live_running_rows_are_not_swept(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunStore(path) as store:
            store.begin_run("bench", {})  # this process: alive
            assert store.resolve_interrupted() == 0
            assert store.list_runs()[0]["outcome"] == "running"


class TestRowContents:
    def test_provenance_columns_recorded(self, store):
        run_id = store.begin_run("bench", {}, provenance={
            "git_rev": "abc123", "git_dirty": True, "host": "h1",
            "pid": 42, "python": "3.12.0", "numpy": "2.0",
            "platform": "linux"})
        row = store.get_run(run_id)
        assert row["git_rev"] == "abc123"
        assert row["git_dirty"] is True
        assert row["host"] == "h1"
        assert row["pid"] == 42

    def test_params_json_roundtrips_nested(self, store):
        params = {"steps": ["a", "b"], "nested": {"x": 1.5},
                  "flag": True, "none": None}
        run_id = store.begin_run("pipeline", params)
        assert store.get_run(run_id)["params"] == json.loads(
            json.dumps(params))


class TestGC:
    def _finished(self, store, subcommand="bench", *, age_days=0.0,
                  parent_id=None):
        run_id = store.begin_run(subcommand, {}, parent_id=parent_id)
        store.finish_run(run_id, "ok")
        if age_days:
            shift = age_days * 86400.0
            store._conn.execute(
                "UPDATE runs SET started_at=started_at-?, "
                "finished_at=finished_at-? WHERE id=?",
                (shift, shift, run_id))
            store._conn.commit()
        return run_id

    def test_no_bounds_touches_no_runs(self, store):
        self._finished(store, age_days=400)
        report = store.gc()
        assert report["deleted_runs"] == []
        assert report["dry_run"] is True

    def test_dry_run_is_the_default_and_deletes_nothing(self, store):
        old = self._finished(store, age_days=30)
        report = store.gc(keep_days=7, keep_last=0)
        assert report["deleted_runs"] == [old]
        assert store.get_run(old)["outcome"] == "ok"

    def test_apply_deletes_runs_and_their_artifacts(self, store,
                                                    tmp_path):
        old = self._finished(store, age_days=30)
        artifact = tmp_path / "old.json"
        artifact.write_text("{}")
        store.add_artifact(old, str(artifact))
        kept = self._finished(store, age_days=1)
        report = store.gc(keep_days=7, keep_last=0, dry_run=False)
        assert report["deleted_runs"] == [old]
        assert report["deleted_artifact_rows"] == 1
        with pytest.raises(ConfigurationError):
            store.get_run(old)
        assert store.get_run(kept)["outcome"] == "ok"

    def test_keep_last_protects_newest_per_subcommand(self, store):
        bench_runs = [self._finished(store, age_days=30 - i)
                      for i in range(3)]
        fleet = self._finished(store, "fleet-run", age_days=30)
        report = store.gc(keep_days=7, keep_last=1, dry_run=False)
        # The newest bench survives its rank; the only fleet run too.
        assert set(report["deleted_runs"]) == set(bench_runs[:2])
        assert store.get_run(bench_runs[2])["outcome"] == "ok"
        assert store.get_run(fleet)["outcome"] == "ok"

    def test_running_rows_are_never_deleted(self, store):
        run_id = store.begin_run("bench", {})
        report = store.gc(keep_days=0, keep_last=0, dry_run=False)
        assert run_id not in report["deleted_runs"]
        assert store.get_run(run_id)["outcome"] == "running"

    def test_linked_trees_live_or_die_together(self, store):
        # Old parent with a *young* child: both survive.
        old_parent = self._finished(store, "fleet-run", age_days=30)
        young_child = self._finished(store, "fleet-shard",
                                     parent_id=old_parent)
        # Old parent with old children: the whole tree goes.
        dead_parent = self._finished(store, "pipeline", age_days=40)
        dead_child = self._finished(store, "step", age_days=40,
                                    parent_id=dead_parent)
        report = store.gc(keep_days=7, keep_last=0, dry_run=False)
        assert set(report["deleted_runs"]) == {dead_parent, dead_child}
        assert store.get_run(old_parent)["outcome"] == "ok"
        assert store.get_run(young_child)["outcome"] == "ok"

    def test_dead_artifact_rows_pruned_for_survivors(self, store,
                                                     tmp_path):
        run_id = self._finished(store)
        gone = tmp_path / "gone.json"
        gone.write_text("{}")
        kept = tmp_path / "kept.json"
        kept.write_text("{}")
        store.add_artifact(run_id, str(gone))
        store.add_artifact(run_id, str(kept))
        gone.unlink()
        report = store.gc()
        assert [entry["path"] for entry in report["dead_artifacts"]] \
            == [str(gone)]
        assert len(store.artifacts(run_id)) == 2  # dry run: reported only
        store.gc(dry_run=False)
        assert [row["path"] for row in store.artifacts(run_id)] \
            == [str(kept)]

    def test_validation(self, store):
        with pytest.raises(ConfigurationError):
            store.gc(keep_days=-1)
        with pytest.raises(ConfigurationError):
            store.gc(keep_last=-1)
