"""Tests for the command-line interface."""

import json

import pytest

from repro.cli.main import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_requires_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design"])

    def test_loadgen_offers_the_schemes_the_hub_serves(self):
        args = build_parser().parse_args(
            ["loadgen", "--port", "1", "--scheme", "rs"])
        assert args.scheme == "rs"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["loadgen", "--port", "1", "--scheme", "xor"])
        assert excinfo.value.code == 2


class TestDesign:
    def test_design_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--alpha", "14", "--beta", "8",
            "--bound", "1000", "--k-fraction", "0.1", "--paper-criteria")
        assert code == 0
        assert "NEMS switches" in out
        assert "guaranteed:" in out
        assert "mm^2" in out

    def test_design_unencoded(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--alpha", "14", "--beta", "12",
            "--bound", "500", "--paper-criteria")
        assert code == 0
        assert "1-of-" in out

    def test_infeasible_reports_error(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--alpha", "10", "--beta", "0.5",
            "--bound", "100", "--window", "integer")
        assert code == 1
        assert "error:" in err

    def test_custom_criteria(self, capsys):
        code, out, _ = run_cli(
            capsys, "design", "--alpha", "14", "--beta", "8",
            "--bound", "500", "--k-fraction", "0.1",
            "--r-min", "0.95", "--p-fail", "0.05")
        assert code == 0


class TestSweep:
    def test_sweep_prints_chart(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--beta", "8", "--bound", "1000",
            "--alpha-min", "10", "--alpha-max", "14", "--step", "2",
            "--k-fraction", "0.1", "--paper-criteria")
        assert code == 0
        assert "alpha=10:" in out
        assert "alpha=14:" in out
        assert "beta=8" in out  # legend of the chart

    def test_sweep_log_scale(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--beta", "12", "--bound", "1000",
            "--alpha-min", "10", "--alpha-max", "12", "--step", "2",
            "--paper-criteria", "--log-y")
        assert code == 0
        assert "(log y)" in out

    @pytest.mark.parametrize("walk", [
        ("--step", "0"),
        ("--step", "-1"),
        ("--alpha-min", "20", "--alpha-max", "10"),
    ])
    def test_sweep_rejects_a_range_it_cannot_walk(self, capsys, walk):
        code, out, err = run_cli(capsys, "sweep", "--beta", "8",
                                 "--bound", "1000", *walk)
        assert code == 1
        assert "error: sweep needs --step > 0" in err
        assert out == ""


class TestAttack:
    def test_attack_probabilities(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--alpha", "14", "--beta", "8",
            "--k-fraction", "0.1", "--paper-criteria")
        assert code == 0
        assert "P[professional brute force succeeds]" in out
        assert "100%" in out  # the software-counter contrast

    def test_attack_with_consumed_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--alpha", "14", "--beta", "8",
            "--k-fraction", "0.1", "--paper-criteria",
            "--legitimate-uses", "91250")
        assert code == 0
        assert "0.0000%" in out


class TestPads:
    def test_pads_analysis(self, capsys):
        code, out, _ = run_cli(
            capsys, "pads", "--alpha", "10", "--beta", "1",
            "--height", "8", "--copies", "128", "--k", "8")
        assert code == 0
        assert "P[receiver succeeds]" in out
        assert "same-path adversary" in out
        assert "pads per mm^2" in out

    def test_pads_design_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "pads", "--alpha", "10", "--beta", "1", "--design",
            "--receiver-min", "0.99", "--adversary-max", "1e-3")
        assert code == 0
        assert "solved pad geometry" in out
        assert "same-path adversary" in out

    def test_pads_design_infeasible(self, capsys):
        code, _, err = run_cli(
            capsys, "pads", "--alpha", "0.5", "--beta", "8", "--design")
        assert code == 1
        assert "error:" in err


class TestSimulate:
    def test_simulate_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1", "--paper-criteria",
            "--trials", "50", "--seed", "3")
        assert code == 0
        assert "simulated 50 fabricated instances" in out
        assert "P[meets legitimate bound" in out

    def test_wall_clock_always_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "10", "--beta", "8",
            "--bound", "200", "--k-fraction", "0.1", "--paper-criteria",
            "--trials", "20", "--seed", "0")
        assert code == 0
        assert "wall clock:" in out
        assert "trials/s" in out


class TestObservabilityFlags:
    BASE = ("simulate", "--alpha", "10", "--beta", "8", "--bound", "200",
            "--k-fraction", "0.1", "--paper-criteria", "--trials", "20",
            "--seed", "0")

    def test_metrics_out_writes_snapshot(self, capsys, tmp_path):
        target = tmp_path / "metrics.json"
        code, _, _ = run_cli(capsys, *self.BASE,
                             "--metrics-out", str(target))
        assert code == 0
        snap = json.loads(target.read_text())
        assert snap["kind"] == "metrics-snapshot"
        assert snap["schema_version"] == 1
        assert snap["counters"]["mc.trials"] == 20

    def test_trace_out_writes_jsonl_spans(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, *self.BASE,
                             "--trace-out", str(target))
        assert code == 0
        events = [json.loads(line)
                  for line in target.read_text().splitlines()]
        assert events
        names = {e["name"] for e in events if e["kind"] == "span"}
        assert "cli.simulate" in names

    def test_obs_summary_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--obs-summary")
        assert code == 0
        assert "counters" in out
        assert "mc.trials" in out

    def test_obs_summary_to_file(self, capsys, tmp_path):
        target = tmp_path / "summary.txt"
        code, out, _ = run_cli(capsys, *self.BASE,
                               "--obs-summary", str(target))
        assert code == 0
        assert "mc.trials" in target.read_text()
        assert "mc.trials" not in out

    def test_recorder_reset_between_runs(self, capsys, tmp_path):
        # Two CLI invocations in one process must not accumulate state.
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_cli(capsys, *self.BASE, "--metrics-out", str(first))
        run_cli(capsys, *self.BASE, "--metrics-out", str(second))
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["counters"]["mc.trials"] == b["counters"]["mc.trials"]

    def test_no_flags_means_disabled(self, capsys):
        from repro.obs.recorder import OBS

        code, _, _ = run_cli(capsys, *self.BASE)
        assert code == 0
        assert not OBS.enabled
        assert OBS.metrics.counters == {}


class TestFaultsCheckpointMismatch:
    def test_mismatched_resume_exits_2(self, capsys, tmp_path):
        ckpt = tmp_path / "campaign.ckpt"
        base = ("faults", "--alpha", "10", "--beta", "8", "--bound",
                "200", "--k-fraction", "0.1", "--paper-criteria",
                "--trials", "4", "--checkpoint", str(ckpt),
                "--checkpoint-every", "2")
        code, _, _ = run_cli(capsys, *base, "--seed", "3")
        assert code == 0
        code, _, err = run_cli(capsys, *base, "--seed", "99")
        assert code == 2
        assert "checkpoint mismatch" in err

    def test_faults_reports_wall_clock(self, capsys):
        code, out, _ = run_cli(
            capsys, "faults", "--alpha", "10", "--beta", "8", "--bound",
            "200", "--k-fraction", "0.1", "--paper-criteria",
            "--trials", "2", "--seed", "0")
        assert code == 0
        assert "wall clock:" in out


@pytest.mark.slow
class TestBench:
    def test_tiny_bench_writes_valid_report(self, capsys, tmp_path):
        from repro.obs.bench import validate_bench_report

        target = tmp_path / "BENCH_tiny.json"
        code, out, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--out", str(target))
        assert code == 0
        assert "bench report written" in out
        validate_bench_report(json.loads(target.read_text()))

    def test_overhead_check_passes_generous_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--check-overhead", "500")
        assert code == 0
        assert "overhead check passed" in out

    def test_compare_against_self_passes(self, capsys, tmp_path):
        target = tmp_path / "BENCH_base.json"
        code, _, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--out", str(target))
        assert code == 0
        # Tiny workloads are noisy run to run, so the wiring test uses a
        # nearly-vacuous threshold; regression detection itself is pinned
        # in tests/obs/test_bench.py on doctored reports.
        code, out, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", str(target), "--compare-threshold", "0.99")
        assert code == 0
        assert "bench compare" in out

    def test_compare_flags_doctored_regression(self, capsys, tmp_path):
        target = tmp_path / "BENCH_base.json"
        code, _, _ = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--out", str(target))
        assert code == 0
        # Inflate the baseline so the rerun looks like a regression.
        payload = json.loads(target.read_text())
        for workload in payload["workloads"]:
            workload["throughput_per_s"] *= 1e6
        target.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", str(target))
        assert code == 4
        assert "throughput regressed" in err

    def test_compare_missing_baseline_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--scale", "tiny", "--repeats", "1",
            "--compare", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read baseline" in err


class TestAdvise:
    def test_advise_lists_candidates(self, capsys):
        code, out, _ = run_cli(
            capsys, "advise", "--alpha", "14", "--beta", "8",
            "--bound", "2000", "--paper-criteria")
        assert code == 0
        assert "k=" in out
        assert "devices" in out

    def test_advise_impossible_constraints(self, capsys):
        code, out, _ = run_cli(
            capsys, "advise", "--alpha", "14", "--beta", "8",
            "--bound", "2000", "--paper-criteria",
            "--max-devices", "1")
        assert code == 1
        assert "no feasible design" in out


class TestDesignSave:
    def test_save_roundtrips(self, capsys, tmp_path):
        target = tmp_path / "design.json"
        code, out, _ = run_cli(
            capsys, "design", "--alpha", "14", "--beta", "8",
            "--bound", "500", "--k-fraction", "0.1", "--paper-criteria",
            "--save", str(target))
        assert code == 0
        assert "design saved" in out
        from repro.core.serialize import loads_design

        design = loads_design(target.read_text())
        assert design.access_bound == 500


class TestExperiments:
    def test_run_single_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "experiments", "sec6.5.2")
        assert code == 0
        assert "0.08512" in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "experiments", "fig99")
        assert code == 2
        assert "unknown" in err


class TestParallelWorkers:
    SIM = ("simulate", "--alpha", "10", "--beta", "8", "--bound", "40",
           "--k-fraction", "0.1", "--paper-criteria", "--seed", "3")

    def test_simulate_workers_matches_serial_checkpoint_run(self, capsys,
                                                            tmp_path):
        serial = tmp_path / "serial.ckpt"
        parallel = tmp_path / "parallel.ckpt"
        code, serial_out, _ = run_cli(
            capsys, *self.SIM, "--trials", "30",
            "--checkpoint", str(serial))
        assert code == 0
        code, parallel_out, _ = run_cli(
            capsys, *self.SIM, "--trials", "30", "--workers", "2",
            "--checkpoint", str(parallel))
        assert code == 0
        # Identical summary statistics and identical checkpoint bytes.
        assert serial_out.splitlines()[:4] == parallel_out.splitlines()[:4]
        assert serial.read_bytes() == parallel.read_bytes()

    def test_simulate_workers_without_checkpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.SIM, "--trials", "12", "--workers", "2")
        assert code == 0
        assert "simulated 12 fabricated instances" in out

    def test_workers_must_be_positive(self, capsys):
        code, _, err = run_cli(
            capsys, *self.SIM, "--trials", "5", "--workers", "0")
        assert code == 1
        assert "--workers must be >= 1" in err

    def test_faults_workers_matches_serial(self, capsys):
        base = ("faults", "--alpha", "10", "--beta", "8", "--bound", "40",
                "--k-fraction", "0.1", "--paper-criteria", "--trials",
                "6", "--seed", "2", "--misfire-rate", "0.02")
        code, serial_out, _ = run_cli(capsys, *base)
        assert code == 0
        code, parallel_out, _ = run_cli(capsys, *base, "--workers", "2")
        assert code == 0
        # Everything but the wall-clock line is bit-identical.
        strip = [line for line in serial_out.splitlines()
                 if "wall clock" not in line]
        strip_parallel = [line for line in parallel_out.splitlines()
                          if "wall clock" not in line]
        assert strip == strip_parallel
