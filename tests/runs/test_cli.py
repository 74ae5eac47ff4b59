"""CLI integration for run recording, pipelines, and cross-run reports."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli.main import main
from repro.runs.store import RunStore, sha256_file

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_ROOT, env.get("PYTHONPATH")]))
    return env


def seed_bench(db_path, throughputs, scale="tiny"):
    with RunStore(db_path) as store:
        run_id = store.begin_run("bench", {"scale": scale}, seed=0)
        store.finish_run(run_id, "ok", summary={
            "kind": "bench", "scale": scale, "date": "20260808",
            "workloads": {name: {"throughput_per_s": value,
                                 "unit": "trials"}
                          for name, value in throughputs.items()}})
    time.sleep(0.01)
    return run_id


class TestRecordingDefaults:
    def test_design_save_records_run_and_artifact(self, capsys,
                                                  tmp_path):
        target = tmp_path / "design.json"
        db = tmp_path / "reg.db"
        code, _, _ = run_cli(
            capsys, "design", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1",
            "--paper-criteria", "--save", str(target),
            "--runs-db", str(db))
        assert code == 0
        with RunStore(str(db)) as store:
            (row,) = store.list_runs(subcommand="design")
            assert row["outcome"] == "ok"
            assert row["params"]["alpha"] == 10.0
            assert row["params"]["save"] == str(target)
            (artifact,) = store.artifacts(row["id"])
        assert artifact["path"] == str(target)
        assert artifact["sha256"] == sha256_file(str(target))

    def test_env_var_default_db(self, capsys, tmp_path, monkeypatch):
        db = tmp_path / "env.db"
        monkeypatch.setenv("REPRO_RUNS_DB", str(db))
        code, _, _ = run_cli(
            capsys, "design", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1",
            "--paper-criteria", "--save", str(tmp_path / "d.json"))
        assert code == 0
        with RunStore(str(db)) as store:
            assert len(store.list_runs(subcommand="design")) == 1

    def test_no_record_opts_out(self, capsys, tmp_path):
        db = tmp_path / "reg.db"
        code, _, _ = run_cli(
            capsys, "design", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1",
            "--paper-criteria", "--save", str(tmp_path / "d.json"),
            "--runs-db", str(db), "--no-record")
        assert code == 0
        assert not db.exists()

    def test_design_records_without_save(self, capsys, tmp_path):
        db = tmp_path / "reg.db"
        design = ("design", "--alpha", "10", "--beta", "8", "--bound",
                  "200", "--k-fraction", "0.1", "--paper-criteria")
        code, _, _ = run_cli(capsys, *design, "--runs-db", str(db))
        assert code == 0
        with RunStore(str(db)) as store:
            (row,) = store.list_runs(subcommand="design")
            assert row["outcome"] == "ok"
            assert row["summary"]["kind"] == "design"
            assert store.artifacts(row["id"]) == []
        unrecorded = tmp_path / "unrecorded.db"
        code, _, _ = run_cli(capsys, *design, "--runs-db", str(unrecorded),
                             "--no-record")
        assert code == 0
        assert not unrecorded.exists()

    def test_unknown_experiment_leaves_failed_row(self, capsys, tmp_path):
        db = tmp_path / "reg.db"
        code, _, err = run_cli(capsys, "experiments", "nope",
                               "--runs-db", str(db))
        assert code == 2
        assert "unknown experiment ids" in err
        with RunStore(str(db)) as store:
            (row,) = store.list_runs(subcommand="experiments")
        assert row["outcome"] == "failed"
        assert "nope" in row["error"]

    def test_faults_campaign_records_summary(self, capsys, tmp_path):
        db = tmp_path / "reg.db"
        code, _, _ = run_cli(
            capsys, "faults", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1",
            "--paper-criteria", "--trials", "2", "--seed", "0",
            "--runs-db", str(db))
        assert code == 0
        with RunStore(str(db)) as store:
            (row,) = store.list_runs(subcommand="faults")
        assert row["outcome"] == "ok"
        assert row["seed"] == 0
        assert row["summary"]["kind"] == "fault-campaign"
        assert row["summary"]["trials"] == 2

    def test_experiments_record_parent_and_children(self, capsys,
                                                    tmp_path):
        db = tmp_path / "reg.db"
        code, _, _ = run_cli(capsys, "experiments", "fig1", "fig10",
                             "--runs-db", str(db))
        assert code == 0
        with RunStore(str(db)) as store:
            (parent,) = store.list_runs(subcommand="experiments")
            children = store.children(parent["id"])
        assert parent["outcome"] == "ok"
        assert parent["summary"]["ids"] == ["fig1", "fig10"]
        assert [c["params"]["id"] for c in children] == \
            ["fig1", "fig10"]
        assert all(c["outcome"] == "ok" for c in children)


class TestConcurrentInvocations:
    def test_two_simultaneous_cli_runs_both_record(self, tmp_path):
        """Two racing CLI processes sharing one registry each get their
        own run row and artifact - nothing is lost to locking."""
        db = str(tmp_path / "shared.db")
        procs = []
        for index in range(2):
            target = tmp_path / f"design-{index}.json"
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "design",
                 "--alpha", "10", "--beta", "8", "--bound", "200",
                 "--k-fraction", "0.1", "--paper-criteria",
                 "--save", str(target), "--runs-db", db],
                env=cli_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with RunStore(db) as store:
            rows = store.list_runs(subcommand="design")
            artifacts = [store.artifacts(row["id"]) for row in rows]
        assert len(rows) == 2
        assert len({row["id"] for row in rows}) == 2
        assert all(row["outcome"] == "ok" for row in rows)
        assert all(len(found) == 1 for found in artifacts)

    def test_sigkilled_serve_is_listed_interrupted(self, capsys,
                                                   tmp_path):
        """A SIGKILL'd CLI run is later reported ``interrupted``."""
        db = str(tmp_path / "reg.db")
        ready = tmp_path / "ready"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--ledger", str(tmp_path / "ledger"),
             "--ready-file", str(ready), "--runs-db", db],
            env=cli_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert time.monotonic() < deadline, "serve never ready"
                assert proc.poll() is None, "serve died early"
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        code, out, _ = run_cli(capsys, "report", "runs",
                               "--runs-db", db)
        assert code == 0
        assert "interrupted" in out
        with RunStore(db) as store:
            (row,) = store.list_runs(subcommand="serve")
        assert row["outcome"] == "interrupted"


class TestReportCommand:
    def test_bench_report_from_db_alone(self, capsys, tmp_path):
        """The cross-run bench comparison needs no artifact file."""
        db = str(tmp_path / "reg.db")
        seed_bench(db, {"mc.fast": 100.0})
        seed_bench(db, {"mc.fast": 150.0})
        code, out, _ = run_cli(capsys, "report", "bench",
                               "--runs-db", db)
        assert code == 0
        assert "+50.0%" in out
        code, out, _ = run_cli(capsys, "report", "bench", "--json",
                               "--runs-db", db)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bench-delta"
        assert payload["rows"][0]["delta_pct"] == pytest.approx(50.0)

    def test_bench_report_empty_db_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "bench",
                               "--runs-db", str(tmp_path / "empty.db"))
        assert code == 1
        assert "no recorded successful bench run" in err

    def test_runs_listing_and_filters(self, capsys, tmp_path):
        db = str(tmp_path / "reg.db")
        seed_bench(db, {"mc.fast": 100.0})
        code, out, _ = run_cli(capsys, "report", "runs",
                               "--runs-db", db)
        assert code == 0
        assert "recorded runs" in out
        code, out, _ = run_cli(capsys, "report", "runs",
                               "--subcommand", "faults",
                               "--runs-db", db)
        assert code == 0
        assert "most recent 0" in out

    def test_campaigns_view(self, capsys, tmp_path):
        db = str(tmp_path / "reg.db")
        with RunStore(db) as store:
            run_id = store.begin_run("faults", {})
            store.finish_run(run_id, "ok", summary={
                "kind": "fault-campaign", "trials": 2,
                "violation_rate": 0.0, "availability": 0.99,
                "mean_served": 10.0})
        code, out, _ = run_cli(capsys, "report", "campaigns",
                               "--runs-db", db)
        assert code == 0
        assert "viol 0.00%" in out


class TestPipelineCommand:
    def test_plan_then_run_then_report(self, capsys, tmp_path):
        db = str(tmp_path / "reg.db")
        seed_bench(db, {"mc.fast": 100.0})
        seed_bench(db, {"mc.fast": 120.0})
        settings = tmp_path / "p.toml"
        settings.write_text("""\
[pipeline]
name = "cli-e2e"
seed = 2
[steps.figs]
kind = "experiments"
ids = ["fig1"]
[steps.delta]
kind = "report"
what = "bench"
after = ["figs"]
""")
        code, out, _ = run_cli(capsys, "pipeline", "plan",
                               str(settings))
        assert code == 0
        assert "figs: experiments" in out
        assert "delta: report" in out

        workdir = str(tmp_path / "out")
        code, out, _ = run_cli(capsys, "pipeline", "run",
                               str(settings), "--workdir", workdir,
                               "--runs-db", db)
        assert code == 0
        assert "pipeline 'cli-e2e' ok" in out

        code, out, _ = run_cli(capsys, "report", "pipeline",
                               "--runs-db", db)
        assert code == 0
        assert "cli-e2e" in out
        assert out.count(" ok") >= 2  # pipeline row and step rows

    def test_failed_pipeline_exits_1(self, capsys, tmp_path):
        settings = tmp_path / "p.toml"
        settings.write_text("""\
[pipeline]
name = "doomed"
[steps.delta]
kind = "report"
what = "bench"
""")
        code, _, err = run_cli(
            capsys, "pipeline", "run", str(settings),
            "--workdir", str(tmp_path / "out"),
            "--runs-db", str(tmp_path / "reg.db"))
        assert code == 1
        assert "FAILED" in err

    def test_bad_settings_exit_1_with_message(self, capsys, tmp_path):
        settings = tmp_path / "broken.toml"
        settings.write_text("[pipeline]\nname = \"x\"\n"
                            "[steps.s]\nkind = \"bogus\"\n")
        code, _, err = run_cli(
            capsys, "pipeline", "run", str(settings),
            "--runs-db", str(tmp_path / "reg.db"))
        assert code == 1
        assert "unknown kind" in err


@pytest.mark.slow
class TestBenchCompareAuto:
    def test_auto_resolves_recorded_baseline(self, capsys, tmp_path):
        db = str(tmp_path / "reg.db")
        baseline = tmp_path / "BENCH_base.json"
        code, _, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--out", str(baseline), "--runs-db", db)
        assert code == 0
        # The recorded run registered the report artifact and embedded
        # provenance in the payload itself.
        payload = json.loads(baseline.read_text())
        assert payload["provenance"]["host"]
        with RunStore(db) as store:
            (row,) = store.list_runs(subcommand="bench")
            (artifact,) = store.artifacts(row["id"])
        assert row["summary"]["workloads"]
        assert artifact["sha256"] == sha256_file(str(baseline))

        code, out, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", "auto", "--compare-threshold", "0.99",
            "--runs-db", db)
        assert code == 0
        assert "--compare auto: baseline is run" in out
        assert row["id"][:12] in out

    def test_auto_skips_artifacts_of_another_schema(self, capsys,
                                                    tmp_path):
        # A bench run recorded by an older version: its artifact is a
        # schema-5 report, which no longer validates and is skipped.
        db = str(tmp_path / "reg.db")
        stale = tmp_path / "BENCH_stale.json"
        stale.write_text(json.dumps({
            "schema_version": 5, "kind": "bench-report", "scale": "tiny",
            "workloads": [], "engine": {}, "capacity": {}}))
        run_id = seed_bench(db, {"mc.fast": 100.0})
        with RunStore(db) as store:
            store.add_artifact(run_id, str(stale))
        code, out, err = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", "auto", "--runs-db", db)
        assert code == 2
        assert "baseline is run" not in out
        assert "no successful bench run" in err

    def test_auto_with_empty_db_is_a_clear_error(self, capsys,
                                                 tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", "auto",
            "--runs-db", str(tmp_path / "empty.db"))
        assert code == 2
        assert "no successful bench run" in err
        with RunStore(str(tmp_path / "empty.db")) as store:
            (row,) = store.list_runs(subcommand="bench")
        assert row["outcome"] == "failed"  # the gate failure is recorded


class TestBenchTrendCLI:
    def test_trend_table_and_json(self, capsys, tmp_path):
        db = str(tmp_path / "runs.db")
        seed_bench(db, {"mc.fast": 100.0})
        seed_bench(db, {"mc.fast": 150.0})
        code, out, _ = run_cli(capsys, "report", "bench", "--trend",
                               "--runs-db", db)
        assert code == 0
        assert "mc.fast" in out
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")
        assert "+50.0%" in out
        code, out, _ = run_cli(capsys, "report", "bench", "--trend",
                               "--json", "--runs-db", db)
        assert code == 0
        trend = json.loads(out)
        assert trend["workloads"]["mc.fast"]["throughput_per_s"] \
            == [100.0, 150.0]


class TestRunsGCCLI:
    def test_dry_run_default_then_apply(self, capsys, tmp_path):
        db = str(tmp_path / "runs.db")
        with RunStore(db) as store:
            old = store.begin_run("bench", {})
            store.finish_run(old, "ok")
            store._conn.execute(
                "UPDATE runs SET started_at=started_at-864000, "
                "finished_at=finished_at-864000 WHERE id=?", (old,))
            store._conn.commit()
            kept = store.begin_run("bench", {})
            store.finish_run(kept, "ok")
        code, out, _ = run_cli(capsys, "runs", "gc", "--keep-days", "1",
                               "--keep-last", "1", "--runs-db", db)
        assert code == 0
        assert "dry run" in out
        assert old[:12] in out
        with RunStore(db) as store:
            assert store.get_run(old)["outcome"] == "ok"
        code, out, _ = run_cli(capsys, "runs", "gc", "--keep-days", "1",
                               "--keep-last", "1", "--apply",
                               "--runs-db", db, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["deleted_runs"] == [old]
        with RunStore(db) as store:
            with pytest.raises(Exception):
                store.get_run(old)
            assert store.get_run(kept)["outcome"] == "ok"


class TestCapacityCLI:
    def _seed_ledger(self, directory, accesses=10):
        from repro.service.client import tenant_population
        from repro.service.hub import WearHub
        from repro.service.ledger import WearLedger

        ledger = WearLedger(directory)
        hub = WearHub(ledger)
        hub.recover()
        population = tenant_population(3, seed=17, alpha=4.0, beta=5.0)
        for payload in population:
            assert hub.provision(payload)["status"] == "ok"
        for index in range(accesses * len(population)):
            hub.serve_round([f"tenant-{index % len(population):03d}"])
        ledger.close()
        return [payload["tenant"] for payload in population]

    def test_fit_from_ledger_records_run(self, capsys, tmp_path):
        ledger_dir = str(tmp_path / "ledger")
        tenants = self._seed_ledger(ledger_dir)
        db = str(tmp_path / "runs.db")
        code, out, _ = run_cli(capsys, "capacity", "fit",
                               "--ledger", ledger_dir, "--json",
                               "--runs-db", db)
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["alpha"] > 0
        assert set(payload["forecasts"]) == set(tenants)
        with RunStore(db) as store:
            row = store.latest_run(subcommand="capacity")
            assert row["outcome"] == "ok"
            assert row["summary"]["kind"] == "capacity-fit"
            assert row["summary"]["tenants"] == len(tenants)
            assert row["seed"] == 0  # the default, resolved before recording

    def test_fit_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "capacity", "fit", "--no-record")
        assert code == 1
        assert "exactly one" in err
        code, _, err = run_cli(
            capsys, "capacity", "fit", "--no-record",
            "--ledger", str(tmp_path / "a"),
            "--root", str(tmp_path / "b"))
        assert code == 1

    def test_calibrate_gate_passes_at_pinned_defaults(self, capsys,
                                                      tmp_path):
        from repro.capacity.calibrate import DEFAULT_SEED

        db = str(tmp_path / "runs.db")
        code, out, _ = run_cli(capsys, "capacity", "calibrate",
                               "--gate", "--runs-db", db)
        assert code == 0
        assert "calibration gate: PASS" in out
        with RunStore(db) as store:
            row = store.latest_run(subcommand="capacity")
        assert row["outcome"] == "ok"
        assert row["seed"] == DEFAULT_SEED == 2017
