"""Pipeline runner tests: recording, failure, resume, interruption."""

import os
import time

import pytest

from repro.cli.main import main
from repro.runs.pipeline import _step_argv, plan_pipeline, run_pipeline
from repro.runs.report import pipeline_payload, render_pipeline
from repro.runs.settings import parse_settings
from repro.runs.store import RunStore, sha256_file

MINI = """\
[pipeline]
name = "mini"
seed = 1

[steps.figs]
kind = "experiments"
ids = ["fig1", "fig10"]

[steps.delta]
kind = "report"
what = "bench"
after = ["figs"]
"""


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "runs.db")


@pytest.fixture
def settings_path(tmp_path):
    path = tmp_path / "mini.toml"
    path.write_text(MINI)
    return str(path)


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


class TestPlan:
    def test_plan_rows(self):
        rows = plan_pipeline(parse_settings(MINI))
        assert rows == [
            {"step": "figs", "kind": "experiments", "after": [],
             "seed": 1},
            {"step": "delta", "kind": "report", "after": ["figs"],
             "seed": 1},
        ]


class TestStepCommandLines:
    def test_keys_become_flags_switches_and_positionals(self):
        step = parse_settings("""\
[pipeline]
name = "p"
[steps.campaign]
kind = "faults"
seed = 4
k_fraction = 0.1
paper_criteria = true
no_rs_fallback = false
[steps.load]
kind = "fleet"
action = "drive"
root = "live"
[steps.figs]
kind = "experiments"
ids = ["fig1", "fig10"]
""").steps
        assert _step_argv(step[0], "out") == [
            "faults", "--checkpoint", os.path.join("out", "campaign.ckpt"),
            "--k-fraction", "0.1", "--paper-criteria"]
        assert _step_argv(step[1], "out") == [
            "fleet", "drive", "--root", "live",
            "--json-out", os.path.join("out", "load.json")]
        assert _step_argv(step[2], "out") == ["experiments", "fig1",
                                              "fig10"]

    @pytest.mark.parametrize("key, message", [
        ("trails = 2", "unrecognized arguments: --trails 2"),
        # argparse never sees a false key: the old executor's name, a
        # typo, and a false on a flag that takes a value.
        ("rs_fallback = false", "has no switch 'rs_fallback'"),
        ("trails = false", "has no switch 'trails'"),
        ("workers = false", "has no switch 'workers'"),
        # argparse would take --trial as an abbreviation of --trials.
        ("trial = 2", "has no flag 'trial'"),
        ("no_record = true", "always recorded"),
    ], ids=["typo", "old-name", "false-typo", "not-a-switch",
            "abbreviated", "no-record"])
    def test_bad_step_is_refused_before_anything_runs(self, key, message,
                                                      capsys, tmp_path):
        settings = tmp_path / "bad.toml"
        settings.write_text(f"""\
[pipeline]
name = "bad"

[steps.figs]
kind = "experiments"
ids = ["fig1"]

[steps.campaign]
kind = "faults"
after = ["figs"]
alpha = 10.0
beta = 8.0
no_rs_fallback = false
{key}
""")
        assert main(["pipeline", "plan", str(settings)]) == 1
        err = capsys.readouterr().err
        assert "error: step 'campaign'" in err and message in err
        db = tmp_path / "reg.db"
        workdir = tmp_path / "out"
        assert main(["pipeline", "run", str(settings), "--runs-db",
                     str(db), "--workdir", str(workdir)]) == 1
        assert "error: step 'campaign'" in capsys.readouterr().err
        assert not db.exists()  # not even the pipeline row
        assert not workdir.exists()


class TestRunAndResume:
    def test_failure_then_resume_skips_recorded_ok_steps(
            self, db_path, settings_path, tmp_path, capsys):
        workdir = str(tmp_path / "out")
        # First run: the report step fails (no bench runs recorded yet)
        # after the experiments step succeeded.
        report = run_pipeline(settings_path, db_path=db_path,
                              workdir=workdir)
        assert report["outcome"] == "failed"
        assert "delta" in report["error"]
        actions = {row["step"]: row["action"] for row in report["steps"]}
        assert actions == {"figs": "ok", "delta": "failed"}
        with RunStore(db_path) as store:
            pipeline_row = store.get_run(report["pipeline_id"])
            assert pipeline_row["outcome"] == "failed"
            children = store.children(report["pipeline_id"])
            outcomes = {(c["params"]["step"], c["outcome"])
                        for c in children}
            assert outcomes == {("figs", "ok"), ("delta", "failed")}
            figs_run = next(c for c in children
                            if c["params"]["step"] == "figs")
            paths = [a["path"] for a in store.artifacts(figs_run["id"])]
            assert paths and paths[0].endswith(
                f"figs.{figs_run['id'][:12]}.txt")
            assert os.path.exists(paths[0])
            failed_run = next(c for c in children
                              if c["params"]["step"] == "delta")
            [failed_log] = store.artifacts(failed_run["id"])

        # Make the report step satisfiable, then resume: the ok step is
        # skipped (not re-run, not double-recorded), the failed one
        # re-runs, and the SAME pipeline row is finalized ok.
        seed_bench(db_path, {"mc.fast": 100.0})
        seed_bench(db_path, {"mc.fast": 150.0})
        resumed = run_pipeline(settings_path, db_path=db_path,
                               resume=True, workdir=workdir)
        assert resumed["pipeline_id"] == report["pipeline_id"]
        assert resumed["outcome"] == "ok"
        actions = {row["step"]: row["action"]
                   for row in resumed["steps"]}
        assert actions == {"figs": "skipped", "delta": "ok"}
        with RunStore(db_path) as store:
            assert store.get_run(report["pipeline_id"])["outcome"] == "ok"
            children = store.children(report["pipeline_id"])
        figs_runs = [c for c in children
                     if c["params"]["step"] == "figs"]
        assert len(figs_runs) == 1  # never re-ran
        delta_runs = [c for c in children
                      if c["params"]["step"] == "delta"]
        assert {c["outcome"] for c in delta_runs} == {"failed", "ok"}
        # The re-run wrote its own log: the failed attempt's is intact.
        ok_run = next(c for c in delta_runs if c["outcome"] == "ok")
        with RunStore(db_path) as store:
            [ok_log] = store.artifacts(ok_run["id"])
        assert ok_log["path"] != failed_log["path"]
        assert "+50.0%" in open(ok_log["path"]).read()
        assert sha256_file(failed_log["path"]) == failed_log["sha256"]
        out = capsys.readouterr().out
        assert "skipped (recorded ok" in out
        assert "+50.0%" in out  # the report step rendered the delta

    def test_resume_without_prior_run_starts_fresh(self, db_path,
                                                   settings_path,
                                                   tmp_path):
        seed_bench(db_path, {"mc.fast": 100.0})
        seed_bench(db_path, {"mc.fast": 110.0})
        report = run_pipeline(settings_path, db_path=db_path,
                              resume=True,
                              workdir=str(tmp_path / "out"))
        assert report["outcome"] == "ok"
        assert all(row["action"] == "ok" for row in report["steps"])

    def test_changed_params_are_not_skipped(self, db_path, tmp_path):
        """Resume identity is the resolved params: editing a step's
        params (hence the settings digest) starts a new pipeline."""
        first = tmp_path / "a.toml"
        first.write_text(MINI)
        workdir = str(tmp_path / "out")
        initial = run_pipeline(str(first), db_path=db_path,
                               workdir=workdir)
        first.write_text(MINI.replace('ids = ["fig1", "fig10"]',
                                      'ids = ["fig1"]'))
        rerun = run_pipeline(str(first), db_path=db_path, resume=True,
                             workdir=workdir)
        assert rerun["pipeline_id"] != initial["pipeline_id"]
        assert {row["action"] for row in rerun["steps"]} >= {"failed"}

    def test_interrupt_finalizes_pipeline_row(self, db_path,
                                              settings_path, tmp_path,
                                              monkeypatch):
        import importlib

        def interrupted(args, run):
            raise KeyboardInterrupt

        monkeypatch.setattr(importlib.import_module("repro.cli.main"),
                            "cmd_experiments", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(settings_path, db_path=db_path,
                         workdir=str(tmp_path / "out"))
        with RunStore(db_path) as store:
            row = store.list_runs(subcommand="pipeline")[0]
            assert row["outcome"] == "interrupted"
            (child,) = store.children(row["id"])
        assert child["outcome"] == "interrupted"


class TestThreeStepEndToEnd:
    def test_experiments_fleet_report_all_record(self, db_path,
                                                 tmp_path):
        seed_bench(db_path, {"mc.fast": 100.0})
        seed_bench(db_path, {"mc.fast": 130.0})
        settings = tmp_path / "e2e.toml"
        settings.write_text("""\
[pipeline]
name = "e2e"
seed = 5

[steps.figs]
kind = "experiments"
ids = ["fig1"]

[steps.fleet]
kind = "fleet"
after = ["figs"]
shards = 2
tenants = 4
requests = 16
concurrency = 4

[steps.delta]
kind = "report"
what = "bench"
after = ["fleet"]
""")
        workdir = str(tmp_path / "out")
        report = run_pipeline(str(settings), db_path=db_path,
                              workdir=workdir)
        assert report["outcome"] == "ok"
        assert [row["action"] for row in report["steps"]] == \
            ["ok", "ok", "ok"]
        with RunStore(db_path) as store:
            children = store.children(report["pipeline_id"])
            assert [c["subcommand"] for c in children] == \
                ["experiments", "fleet", "report"]
            assert all(c["outcome"] == "ok" for c in children)
            assert all(c["parent_id"] == report["pipeline_id"]
                       for c in children)
            for child in children:
                assert store.artifacts(child["id"]), \
                    f"step {child['params']['step']} has no artifacts"
            fleet_summary = children[1]["summary"]
        assert fleet_summary["served"] > 0
        assert fleet_summary["shards"] == 2


class TestStepsRunTheCLIHandlers:
    def test_experiments_step_records_one_child_per_figure(self, db_path,
                                                           settings_path,
                                                           tmp_path):
        run_pipeline(settings_path, db_path=db_path,
                     workdir=str(tmp_path / "out"))
        with RunStore(db_path) as store:
            payload = pipeline_payload(store)
        figs = payload["steps"][0]
        assert [(c["subcommand"], c["params"]["id"], c["outcome"])
                for c in figs["children"]] == \
            [("experiment", "fig1", "ok"), ("experiment", "fig10", "ok")]
        text = render_pipeline(payload)
        assert "- fig1 " in text and "- fig10 " in text
        assert "req" not in text  # shard detail is for fleet shards only

    def test_every_step_registers_its_console_log(self, db_path,
                                                  settings_path, tmp_path,
                                                  capsys):
        workdir = tmp_path / "out"
        report = run_pipeline(settings_path, db_path=db_path,
                              workdir=str(workdir))
        assert [row["action"] for row in report["steps"]] == \
            ["ok", "failed"]  # no bench runs for the report step yet
        with RunStore(db_path) as store:
            logs = {}
            for child in store.children(report["pipeline_id"]):
                step = child["params"]["step"]
                logs[step] = workdir / f"{step}.{child['id'][:12]}.txt"
                assert str(logs[step]) in [
                    a["path"] for a in store.artifacts(child["id"])]
        figs_log = logs["figs"].read_text()
        assert "== fig1:" in figs_log and "== fig10:" in figs_log
        assert figs_log in capsys.readouterr().out  # tee'd, not diverted

    def test_faults_step_matches_the_cli_command(self, db_path, tmp_path):
        settings = tmp_path / "campaign.toml"
        settings.write_text("""\
[pipeline]
name = "same"
seed = 3

[steps.campaign]
kind = "faults"
alpha = 10.0
beta = 8.0
bound = 40
k_fraction = 0.1
paper_criteria = true
trials = 4
checkpoint_every = 2
misfire_rate = 0.02
workers = 1
""")
        workdir = tmp_path / "out"
        report = run_pipeline(str(settings), db_path=db_path,
                              workdir=str(workdir))
        assert report["outcome"] == "ok"
        checkpoint = tmp_path / "cli.ckpt"
        assert main(["faults", "--alpha", "10.0", "--beta", "8.0",
                     "--bound", "40", "--k-fraction", "0.1",
                     "--paper-criteria", "--trials", "4",
                     "--checkpoint-every", "2", "--misfire-rate", "0.02",
                     "--workers", "1", "--seed", "3",
                     "--checkpoint", str(checkpoint),
                     "--runs-db", db_path]) == 0
        assert (workdir / "campaign.ckpt").read_bytes() == \
            checkpoint.read_bytes()
        with RunStore(db_path) as store:
            (step_row,) = store.children(report["pipeline_id"])
            (cli_row,) = [row for row in store.list_runs(subcommand="faults")
                          if row["parent_id"] is None]
        assert step_row["seed"] == cli_row["seed"] == 3
        assert step_row["summary"] == cli_row["summary"]
        assert report["steps"][0]["summary"] == cli_row["summary"]
