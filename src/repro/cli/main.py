"""Command-line interface for the repro library.

Subcommands mirror the workflows a user of the paper's system needs:

- ``design``      size a limited-use architecture and report its costs
- ``sweep``       total-device sweep over alpha for one (beta, k) setting
- ``attack``      crack-probability analysis for a sized phone design
- ``pads``        one-time-pad design-point analysis (Eqs. 9-15 + costs)
- ``simulate``    Monte Carlo empirical access bounds for a design
- ``faults``      checkpointed fault-injection campaign (ceiling
  violations, availability, retry/quarantine behaviour)
- ``experiments`` run registered paper artifacts (same as
  ``python -m repro.experiments``)
- ``bench``       pinned perf workload suite -> ``BENCH_<date>.json``
- ``serve``       run the limited-use authorization service (asyncio
  TCP, batched wear accounting, durable wear ledger)
- ``loadgen``     drive a running service with a seeded multi-tenant
  workload and report outcome statistics
- ``fleet``       sharded fleet operations: ``run`` (spawn + drive, the
  default), ``serve`` (supervise until SIGTERM), ``drive`` (load an
  already-running fleet) and ``top`` (live telemetry dashboard)
- ``chaos``       scripted crash/recovery scenarios asserting the
  fleet's wear-exactness invariants
- ``pipeline``    run a declarative multi-step campaign pipeline from a
  settings file (``repro pipeline run settings.toml``), each step
  recorded as a run linked to the pipeline; ``--resume`` skips steps
  already recorded ok
- ``report``      cross-run comparisons rendered from the run registry
  alone (``runs``, ``bench``, ``pipeline``, ``campaigns``)
- ``runs``        run-registry maintenance: ``gc`` prunes old runs
  (``--keep-days`` / ``--keep-last``) and artifact rows whose files
  are gone; dry run by default, ``--apply`` deletes
- ``capacity``    online endurance estimation: ``fit`` pools observed
  wear (from ledger directories or a live fleet) into a censored
  Weibull fit plus per-tenant remaining-use forecasts; ``calibrate``
  replays the pinned ground-truth coverage sweep (``--gate`` exits 5
  on failure)

Every subcommand that takes ``--no-record`` records itself in the
SQLite run registry (``--runs-db`` / ``$REPRO_RUNS_DB`` /
``./runs.db``): resolved params, seed, git provenance, outcome, and the
artifacts it wrote.  ``--no-record`` opts out; see ``docs/runs.md``.
Each handler is ``cmd_<subcommand>(args, run) -> int``; ``main`` and
pipeline steps each open the run row and run the handler through
:func:`run_command`, which owns the observability session.

Commands that do real work accept the observability flags
``--metrics-out`` (JSON metrics snapshot), ``--trace-out`` (JSONL span
trace), ``--obs-summary`` (human-readable tables, to stdout or a file)
and ``--obs-metrics`` (recorder on, no sinks - what gives the service
``metrics`` op histograms to export); see ``docs/observability.md``.

Exit codes: 0 success, 1 error (or fault-campaign ceiling violations,
or a reader that closed stdout early, as ``| head`` does), 2 usage /
checkpoint-mismatch, 3 bench overhead regression, 4 bench
``--compare`` throughput regression, 5 bench ``--require-throughput``
floor violation, chaos invariant violation, or ``capacity calibrate
--gate`` failure.

Run ``python -m repro.cli <subcommand> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from repro.core.costs import (
    access_energy_j,
    access_latency_s,
    connection_area_mm2,
)
from repro.core.degradation import (
    DEFAULT_CRITERIA,
    DegradationCriteria,
    PAPER_CRITERIA,
)
from repro.core.sizing import size_architecture, sweep_alpha
from repro.core.weibull import WeibullDistribution
from repro.errors import (
    CheckpointMismatchError,
    ConfigurationError,
    ReproError,
)
from repro.obs.recorder import OBS
from repro.pads.analysis import (
    adversary_success_probability,
    receiver_success_probability,
)
from repro.pads.layout import pads_per_chip, retrieval_cost
from repro.passwords.model import PasswordModel
from repro.sim.montecarlo import simulate_access_bounds, summarize_bounds
from repro.sim.rng import make_rng, set_default_seed
from repro.viz.ascii import line_chart

__all__ = ["build_parser", "main", "run_command"]


def _add_runs_db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs-db", metavar="FILE", default=None,
                        help="run-registry database (default: "
                             "$REPRO_RUNS_DB, else ./runs.db)")


def _add_record_arguments(parser: argparse.ArgumentParser) -> None:
    _add_runs_db_argument(parser)
    parser.add_argument("--no-record", action="store_true",
                        help="do not record this invocation in the "
                             "run registry")


_RECORD_EXCLUDE = frozenset({"command", "func", "no_record", "runs_db"})


def _recorder(args):
    """The run row of one invocation; inert unless it takes --no-record.

    The row's params are the fully resolved invocation parameters.
    """
    from repro.runs.recorder import RunRecorder

    params = {key: value for key, value in sorted(vars(args).items())
              if key not in _RECORD_EXCLUDE}
    return RunRecorder(args.command, params,
                       db_path=getattr(args, "runs_db", None),
                       seed=getattr(args, "seed", None),
                       enabled=not getattr(args, "no_record", True))


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write a JSON metrics snapshot to FILE")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="append JSONL span/event trace to FILE")
    parser.add_argument("--obs-summary", metavar="FILE", nargs="?",
                        const="-", default=None,
                        help="print observability summary tables "
                             "(or write them to FILE)")
    parser.add_argument("--obs-metrics", action="store_true",
                        help="enable the in-process recorder without "
                             "attaching any sink (gives the service "
                             "metrics op histograms to export)")


@contextlib.contextmanager
def _obs_session(args):
    """Enable the recorder for one command when any obs flag is set.

    On exit (success or failure) the metrics snapshot / summary are
    written as requested and the recorder is reset, so one CLI process
    can never leak state into the next command (tests drive ``main``
    repeatedly in-process).
    """
    wants = (getattr(args, "metrics_out", None) is not None
             or getattr(args, "trace_out", None) is not None
             or getattr(args, "obs_summary", None) is not None
             or getattr(args, "obs_metrics", False))
    if not wants:
        yield False
        return
    from repro.obs.sinks import JsonlSink

    sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
    OBS.configure(sinks=sinks, enabled=True)
    try:
        yield True
    finally:
        try:
            if args.metrics_out:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    json.dump(OBS.metrics.snapshot(), handle, indent=2)
                    handle.write("\n")
            if args.obs_summary is not None:
                text = OBS.summary()
                if args.obs_summary == "-":
                    print(text)
                else:
                    with open(args.obs_summary, "w",
                              encoding="utf-8") as handle:
                        handle.write(text + "\n")
        finally:
            OBS.reset()


def _print_wall_clock(label: str, units: int, elapsed_s: float) -> None:
    rate = units / elapsed_s if elapsed_s > 0 else float("inf")
    print(f"  wall clock: {elapsed_s:.3f} s "
          f"({rate:,.1f} {label}/s)")


def _criteria_from_args(args) -> DegradationCriteria:
    if args.paper_criteria:
        return PAPER_CRITERIA
    if args.r_min is not None or args.p_fail is not None:
        return DegradationCriteria(
            r_min=args.r_min if args.r_min is not None else 0.99,
            p_fail=args.p_fail if args.p_fail is not None else 0.01)
    return DEFAULT_CRITERIA


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True,
                        help="device scale parameter (mean cycles)")
    parser.add_argument("--beta", type=float, required=True,
                        help="device shape parameter (consistency)")


def _add_criteria_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bound", type=int, default=91_250,
                        help="legitimate access bound (default: 91,250)")
    parser.add_argument("--k-fraction", type=float, default=None,
                        help="encoding threshold fraction (omit = none)")
    parser.add_argument("--window", choices=("integer", "fractional"),
                        default="fractional")
    parser.add_argument("--paper-criteria", action="store_true",
                        help="use the 98%%/2.2%% calibrated criteria")
    parser.add_argument("--r-min", type=float, default=None)
    parser.add_argument("--p-fail", type=float, default=None)


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    _add_device_arguments(parser)
    _add_criteria_arguments(parser)


def _design_point(args):
    return size_architecture(args.alpha, args.beta, args.bound,
                             k_fraction=args.k_fraction,
                             criteria=_criteria_from_args(args),
                             window=args.window)


def cmd_design(args, run) -> int:
    point = _design_point(args)
    run.set_summary({"kind": "design",
                     "total_devices": point.total_devices,
                     "guaranteed": point.guaranteed_accesses})
    if args.save:
        from repro.core.serialize import dumps_design

        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(dumps_design(point) + "\n")
        run.add_artifact(args.save)
        print(f"design saved to {args.save}")
    print(f"device:      Weibull(alpha={args.alpha}, beta={args.beta})")
    print(f"bank:        {point.k}-of-{point.n} switches")
    print(f"copies:      {point.copies} (x {point.t} accesses each)")
    print(f"total:       {point.total_devices:,} NEMS switches")
    print(f"guaranteed:  {point.guaranteed_accesses:,} accesses "
          f"(target {point.access_bound:,})")
    print(f"coverage:    P[serves the full target] = "
          f"{point.coverage_probability():.4f}")
    print(f"expected to die by: {point.expected_access_bound():,.0f} "
          f"accesses")
    print(f"area:        {connection_area_mm2(point):.3e} mm^2")
    print(f"energy:      {access_energy_j(point):.3e} J/access")
    print(f"latency:     {access_latency_s(point) * 1e9:.0f} ns/access")
    return 0


def cmd_advise(args, run) -> int:
    from repro.core.advisor import AdvisorConstraints, advise

    constraints = AdvisorConstraints(
        max_area_mm2=args.max_area_mm2,
        max_energy_j_per_access=args.max_energy_j,
        max_devices=args.max_devices)
    candidates = advise(args.alpha, args.beta, args.bound,
                        constraints=constraints,
                        criteria=_criteria_from_args(args))
    if not candidates:
        print("no feasible design under these constraints; relax them "
              "or procure devices with tighter wearout bounds")
        return 1
    print(f"{'option':<12} {'devices':>12} {'area mm^2':>11} "
          f"{'energy/access':>14}")
    for candidate in candidates:
        print(f"{candidate.label:<12} "
              f"{candidate.design.total_devices:>12,} "
              f"{candidate.area_mm2:>11.3e} "
              f"{candidate.energy_j:>13.3e}J")
    return 0


def cmd_sweep(args, run) -> int:
    if not args.step > 0 or args.alpha_max < args.alpha_min:
        raise ConfigurationError(
            f"sweep needs --step > 0 and --alpha-min <= --alpha-max "
            f"(got --step {args.step:g} over alpha {args.alpha_min:g} "
            f"to {args.alpha_max:g})")
    alphas = np.arange(args.alpha_min, args.alpha_max + 1e-9, args.step)
    results = sweep_alpha(alphas, args.beta, args.bound,
                          k_fraction=args.k_fraction,
                          criteria=_criteria_from_args(args),
                          window=args.window)
    rows = [(r.alpha, float(r.total_devices))
            for r in results if r.total_devices is not None]
    for r in results:
        total = "infeasible" if r.total_devices is None \
            else f"{r.total_devices:,}"
        print(f"alpha={r.alpha:g}: {total}")
    if len(rows) >= 2:
        label = (f"beta={args.beta}" if args.k_fraction is None
                 else f"beta={args.beta} k={args.k_fraction:.0%}")
        print(line_chart({label: rows}, log_y=args.log_y))
    return 0


def cmd_attack(args, run) -> int:
    point = _design_point(args)
    model = PasswordModel()
    budget = point.guaranteed_accesses - args.legitimate_uses
    p = float(model.cracked_fraction(max(budget, 0)))
    print(f"hardware access budget left to the attacker: {max(budget, 0):,}")
    print(f"P[professional brute force succeeds]: {p:.4%}")
    for label, excluded in (("top 1% rejected", 0.01),
                            ("top 2% rejected", 0.02)):
        hardened = 0.0 if p <= excluded else (p - excluded) / (1 - excluded)
        print(f"  with {label}: {hardened:.4%}")
    print("against a bypassed software counter the same attacker "
          "succeeds with probability 100%")
    return 0


def cmd_pads(args, run) -> int:
    device = WeibullDistribution(alpha=args.alpha, beta=args.beta)
    if args.design:
        from repro.pads.design import design_pad

        solved = design_pad(device, receiver_min=args.receiver_min,
                            adversary_max=args.adversary_max)
        print(f"solved pad geometry: H={solved.height}, "
              f"n={solved.n_copies}, k={solved.k}")
        print(f"  receiver success:   {solved.receiver_success:.6f}")
        print(f"  Eq.15 adversary:    "
              f"{solved.eq15_adversary_success:.3e}")
        print(f"  same-path adversary: "
              f"{solved.same_path_adversary_success:.3e}")
        print(f"  pad area:           {solved.area_mm2:.3e} mm^2")
        return 0
    recv = receiver_success_probability(device, args.height, args.copies,
                                        args.k)
    adv = adversary_success_probability(device, args.height, args.copies,
                                        args.k)
    same_path = (2.0 ** -(args.height - 1)
                 * recv)  # stronger same-path-per-trial adversary
    cost = retrieval_cost(args.height, args.copies)
    print(f"design: H={args.height}, n={args.copies}, k={args.k}, "
          f"device Weibull({args.alpha}, {args.beta})")
    print(f"P[receiver succeeds]:            {recv:.6f}")
    print(f"P[Eq.15 adversary succeeds]:     {adv:.3e}")
    print(f"P[same-path adversary, 1 trial]: {same_path:.3e}")
    print(f"retrieval latency: {cost.total_latency_s * 1e3:.5f} ms, "
          f"energy {cost.energy_j:.3e} J")
    print(f"pads per mm^2: {pads_per_chip(args.height, args.copies):,}")
    return 0


def _resolve_workers(args) -> int | None:
    """Map the ``--workers`` flag to the campaign runner's ``workers``.

    ``None`` (flag omitted) auto-sizes to the host's CPU count; a
    resolved count of 1 returns ``None`` so single-worker runs stay in
    this process - bit-identical results either way, but without
    process-pool overhead on single-core hosts.
    """
    from repro.sim.parallel import default_workers

    workers = args.workers if args.workers is not None else default_workers()
    if workers < 1:
        raise ConfigurationError("--workers must be >= 1")
    return workers if workers > 1 else None


def cmd_simulate(args, run) -> int:
    point = _design_point(args)
    started = time.perf_counter()
    if args.checkpoint is not None or args.workers is not None:
        from repro.sim.montecarlo import simulate_access_bounds_checkpointed

        bounds = simulate_access_bounds_checkpointed(
            point, args.trials, args.seed,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            workers=_resolve_workers(args))
    else:
        bounds = simulate_access_bounds(point, args.trials,
                                        make_rng(args.seed))
    elapsed = time.perf_counter() - started
    summary = summarize_bounds(bounds)
    print(f"simulated {summary.trials} fabricated instances:")
    print(f"  mean bound: {summary.mean:,.1f} (std {summary.std:.1f})")
    print(f"  min/p01/p50/p99/max: {summary.minimum:,} / "
          f"{summary.p01:,.0f} / {summary.p50:,.0f} / "
          f"{summary.p99:,.0f} / {summary.maximum:,}")
    meets = float((bounds >= point.access_bound).mean())
    print(f"  P[meets legitimate bound {point.access_bound:,}]: "
          f"{meets:.3f}")
    _print_wall_clock("trials", args.trials, elapsed)
    run.set_summary({"kind": "simulate", "trials": summary.trials,
                     "mean": summary.mean, "p50": summary.p50,
                     "meets_bound": meets})
    if args.checkpoint and os.path.exists(args.checkpoint):
        run.add_artifact(args.checkpoint)
    return 0


def cmd_faults(args, run) -> int:
    from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign

    point = _design_point(args)
    set_default_seed(args.seed)
    config = FaultCampaignConfig(
        misfire_rate=args.misfire_rate,
        premature_stuck_open_rate=args.premature_rate,
        stuck_closed_probability=args.stuck_closed,
        corruption_rate=args.corruption_rate,
        timeout_rate=args.timeout_rate,
        temperature_c=args.temperature,
        rs_fallback=not args.no_rs_fallback,
        max_attempts=args.max_attempts,
        quarantine_after=args.quarantine_after,
        max_accesses=args.max_accesses,
    )
    if args.checkpoint:
        from repro.sim.checkpoint import load_checkpoint

        resumed = load_checkpoint(args.checkpoint)
        if resumed is not None:
            print(f"resuming from {args.checkpoint} "
                  f"({resumed['completed']}/{args.trials} trials done)")
    started = time.perf_counter()
    report = run_fault_campaign(point, config, trials=args.trials,
                                seed=args.seed,
                                checkpoint_path=args.checkpoint,
                                checkpoint_every=args.checkpoint_every,
                                workers=_resolve_workers(args))
    elapsed = time.perf_counter() - started
    print(f"design: {point.k}-of-{point.n} x {point.copies} copies, "
          f"device Weibull({args.alpha}, {args.beta})")
    print(report.render())
    _print_wall_clock("trials", args.trials, elapsed)
    run.set_summary({"kind": "fault-campaign",
                     "trials": report.trials,
                     "ceiling": report.ceiling,
                     "violation_rate": report.violation_rate,
                     "availability": report.availability,
                     "mean_served": report.mean_served})
    if args.checkpoint and os.path.exists(args.checkpoint):
        run.add_artifact(args.checkpoint)
    if report.violation_rate > 0:
        run.record_failure(
            f"{report.violation_rate:.2%} of instances violated "
            f"the security ceiling")
        return 1
    return 0


def cmd_experiments(args, run) -> int:
    from repro.experiments.registry import EXPERIMENTS

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        run.record_failure(f"unknown experiment ids: {unknown}")
        return 2
    for experiment_id in ids:
        with run.child("experiment", {"id": experiment_id}) as figure:
            with OBS.span(f"experiment.{experiment_id}"):
                rendered = EXPERIMENTS[experiment_id]().render()
            figure.set_summary({"kind": "experiment", "id": experiment_id})
        print(rendered)
        print()
    run.set_summary({"kind": "experiments", "ids": list(ids)})
    return 0


def _auto_bench_baseline(args, current_run_id: str | None) -> dict | None:
    """Resolve a ``--compare auto`` baseline from the run registry.

    The baseline is the most recent successful bench run recorded on
    this host at the same scale (the in-flight run excluded) whose
    registered report artifact is still readable and a valid report of
    the current schema.  Returns ``None`` - after printing a clear
    error - when the registry holds no such run.
    """
    import socket

    from repro.obs.bench import validate_bench_report
    from repro.runs.store import RunStore

    try:
        store = RunStore(args.runs_db)
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        print(f"error: --compare auto cannot open the run registry: "
              f"{exc}", file=sys.stderr)
        return None
    try:
        store.resolve_interrupted()
        host = socket.gethostname()
        for run in store.list_runs(subcommand="bench", outcome="ok",
                                   limit=200):
            if run["id"] == current_run_id or run.get("host") != host:
                continue
            if (run.get("summary") or {}).get("scale") != args.scale:
                continue
            for artifact in store.artifacts(run["id"]):
                if not artifact["path"].endswith(".json"):
                    continue
                try:
                    with open(artifact["path"],
                              encoding="utf-8") as handle:
                        baseline = json.load(handle)
                    validate_bench_report(baseline)
                except (OSError, json.JSONDecodeError, ConfigurationError):
                    continue
                print(f"--compare auto: baseline is run "
                      f"{run['id'][:12]} ({artifact['path']})")
                return baseline
        print(f"error: --compare auto found no successful bench run "
              f"at scale {args.scale!r} on host {host!r} in "
              f"{store.path!r}; record one first with "
              f"`repro bench --scale {args.scale} --out FILE`",
              file=sys.stderr)
        return None
    finally:
        store.close()


def cmd_bench(args, run) -> int:
    from repro.obs.bench import (
        compare_bench_reports,
        measure_disabled_overhead,
        render_bench_comparison,
        render_bench_report,
        run_bench_suite,
        write_bench_report,
    )
    from repro.runs.report import bench_run_summary

    report = run_bench_suite(args.scale, seed=args.seed,
                             repeats=args.repeats)
    run.set_summary(bench_run_summary(report))
    print(render_bench_report(report))
    if args.out:
        write_bench_report(report, args.out)
        run.add_artifact(args.out)
        print(f"bench report written to {args.out}")
    if args.compare:
        if args.compare == "auto":
            baseline = _auto_bench_baseline(args, run.run_id)
            if baseline is None:
                return 2
        else:
            try:
                with open(args.compare, encoding="utf-8") as handle:
                    baseline = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read baseline {args.compare!r}: "
                      f"{exc}", file=sys.stderr)
                return 2
        comparison = compare_bench_reports(baseline, report,
                                           threshold=args.compare_threshold)
        print(render_bench_comparison(comparison))
        if comparison["regressions"]:
            print(f"FAIL: throughput regressed beyond "
                  f"{comparison['threshold_pct']:.0f}% on: "
                  f"{', '.join(comparison['regressions'])}",
                  file=sys.stderr)
            return 4
    if args.require_throughput:
        failures: list[str] = []
        by_name = {w["name"]: w for w in report["workloads"]}
        for spec in args.require_throughput:
            name, _, floor_text = spec.partition("=")
            try:
                floor = float(floor_text)
            except ValueError:
                print(f"error: bad --require-throughput {spec!r} "
                      f"(expected NAME=FLOOR)", file=sys.stderr)
                return 2
            workload = by_name.get(name)
            if workload is None:
                print(f"error: unknown workload {name!r} in "
                      f"--require-throughput (have: "
                      f"{', '.join(sorted(by_name))})", file=sys.stderr)
                return 2
            measured = workload["throughput_per_s"]
            if measured is None or measured < floor:
                failures.append(
                    f"{name}: {measured if measured is None else f'{measured:.1f}'}"
                    f" {workload['unit']}/s < floor {floor:g}")
            else:
                print(f"throughput floor passed: {name} "
                      f"{measured:.1f} {workload['unit']}/s >= {floor:g}")
        if failures:
            for line in failures:
                print(f"FAIL: throughput floor violated: {line}",
                      file=sys.stderr)
            return 5
    if args.check_overhead is not None:
        overhead_pct = report["overhead"]["overhead_pct"]
        if overhead_pct > args.check_overhead:
            # One noise-damped retry with doubled repeats before failing:
            # CI runners jitter, and a false regression alarm is costly.
            retry = measure_disabled_overhead(
                repeats=2 * report["overhead"]["repeats"],
                trials=report["overhead"]["trials"], seed=args.seed)
            overhead_pct = retry["overhead_pct"]
        if overhead_pct > args.check_overhead:
            print(f"FAIL: observability-disabled overhead "
                  f"{overhead_pct:+.2f}% exceeds the "
                  f"{args.check_overhead:.2f}% budget", file=sys.stderr)
            return 3
        print(f"overhead check passed: {overhead_pct:+.2f}% <= "
              f"{args.check_overhead:.2f}%")
    return 0


def cmd_serve(args, run) -> int:
    import asyncio

    from repro.service.server import ServiceConfig, run_service

    config = ServiceConfig(
        ledger_dir=args.ledger,
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        queue_cap=args.queue_cap,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        snapshot_every=args.snapshot_every,
        segment_records=args.segment_records,
        ready_file=args.ready_file,
        capacity_horizon=args.capacity_horizon,
        capacity_warn=args.capacity_warn,
        capacity_refuse=args.capacity_refuse,
        capacity_refresh=args.capacity_refresh,
        capacity_seed=args.capacity_seed,
    )
    asyncio.run(run_service(config))
    run.add_artifact(args.ledger, digest=False)
    print("service drained cleanly")
    return 0


def cmd_loadgen(args, run) -> int:
    from repro.service.client import read_ready_file

    if args.ready_file:
        host, port = read_ready_file(args.ready_file)
    else:
        if args.port is None:
            raise ConfigurationError(
                "loadgen needs --port (or --ready-file)")
        host, port = args.host, args.port
    faults = None
    if args.misfire_rate or args.timeout_rate or args.corruption_rate:
        faults = {"misfire_rate": args.misfire_rate,
                  "timeout_rate": args.timeout_rate,
                  "corruption_rate": args.corruption_rate}
    population_kwargs = {"n": args.n, "k": args.k, "copies": args.copies,
                         "alpha": args.alpha, "beta": args.beta,
                         "scheme": args.scheme}
    return _drive_shards(args, run, [{"host": host, "port": port}],
                         faults=faults, drain=args.drain,
                         population_kwargs=population_kwargs)


def _drive_shards(args, run, shards, supervisor=None, **options) -> int:
    """The body of ``loadgen`` and ``fleet run|drive``: one ``run_loadgen``.

    A ``fleet`` run records one linked ``fleet-shard`` child row per
    shard with its share of the traffic (and, when this call
    supervised, its restarts).
    """
    import asyncio

    from repro.service.client import run_loadgen
    from repro.service.fleet import shard_summaries

    started = time.perf_counter()
    with supervisor or contextlib.nullcontext():
        stats = asyncio.run(run_loadgen(
            shards, tenants=args.tenants, requests=args.requests,
            concurrency=args.concurrency, seed=args.seed,
            retry=_retry_policy(args), **options))
    elapsed = time.perf_counter() - started
    _print_load_stats(args.command, stats)
    _print_wall_clock("requests", args.requests, elapsed)
    _write_json(args.json_out, stats, f"{args.command} stats")
    if args.json_out:
        run.add_artifact(args.json_out)
    run.set_summary({"kind": args.command, "shards": stats["shards"],
                     "requests": stats["requests"],
                     "served": stats["served"],
                     "requests_per_s": stats["requests_per_s"],
                     "outcomes": stats["outcomes"]})
    if args.command == "fleet":
        restarts = None
        if supervisor is not None:
            run.add_artifact(args.root, digest=False)
            restarts = list(supervisor.restarts)
        for summary in shard_summaries(stats, restarts):
            with run.child("fleet-shard",
                           {"shard": summary["shard"]}) as child:
                child.set_summary(summary)
    if stats["served"] == 0:
        run.record_failure(f"{args.command} served no request")
        return 1
    return 0


def _print_load_stats(label: str, stats: dict) -> None:
    print(f"{label}: {stats['requests']} requests over "
          f"{stats['tenants']} tenants across {stats['shards']} shard(s) "
          f"({stats['requests_per_s']:,.1f} req/s)")
    for status, count in stats["outcomes"].items():
        print(f"  {status:<14} {count}")
    service = stats["service"]
    print(f"  batched into {service['rounds']} rounds "
          f"(mean size {service['batch_size_mean']:.2f}, "
          f"max {service['batch_size_max']}; "
          f"{service['window_expired']} waited the whole window)")
    print(f"  per-shard requests {stats['per_shard_requests']}, "
          f"workers {stats['per_shard_workers']} | "
          f"busy retries {stats['busy_retries']} | "
          f"reconnects {stats['reconnects']}")
    _print_latency_split(stats.get("latency_split"))


def _format_ms(seconds) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.3f}ms"


def _print_latency_split(split: dict | None) -> None:
    """Queue-wait vs kernel-time breakdown from the shard's histograms.

    Silent when the server ran without ``--obs-metrics`` - the split
    only exists where something recorded it.
    """
    if not split:
        return
    print("  latency split (server-side, per stage):")
    for label in ("queue_wait", "kernel", "wal_append", "round"):
        stage = split.get(label)
        if stage:
            print(f"    {label:<10} p50 {_format_ms(stage.get('p50'))}  "
                  f"p95 {_format_ms(stage.get('p95'))}  "
                  f"p99 {_format_ms(stage.get('p99'))}  "
                  f"max {_format_ms(stage.get('max'))}")


def _retry_policy(args):
    from repro.service.client import RetryPolicy

    if args.retries == 0:
        return None
    return RetryPolicy(retries=args.retries, base_s=args.retry_base_s,
                       cap_s=args.retry_cap_s)


def _add_retry_arguments(parser) -> None:
    parser.add_argument("--retries", type=int, default=5,
                        help="retry budget for busy/unavailable answers "
                             "(0 disables retrying)")
    parser.add_argument("--retry-base-s", type=float, default=0.01,
                        help="first jittered-backoff ceiling in seconds")
    parser.add_argument("--retry-cap-s", type=float, default=0.5,
                        help="backoff ceiling cap in seconds")


def _fleet_supervisor(args):
    from repro.service.supervisor import FleetSupervisor

    return FleetSupervisor(
        args.root, args.shards,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        queue_cap=args.queue_cap,
        snapshot_every=args.snapshot_every,
        segment_records=args.segment_records,
        obs_trace=args.shard_trace)


def _fleet_map_path(args) -> str:
    from repro.service.fleet import FLEET_MAP_NAME

    return os.path.join(args.root, FLEET_MAP_NAME)


def _write_json(path: str | None, payload: dict, label: str) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    print(f"{label} written to {path}")


def _write_prom(path: str, snapshot: dict) -> None:
    """Atomically publish the text exposition (scrapers read mid-write)."""
    from repro.obs.export import render_prometheus

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(snapshot))
    os.replace(tmp, path)


def _fleet_load(args, run) -> int:
    """Drive a fleet: ``run`` spawns and stops its own (the one-shot
    smoke path), ``drive`` loads one already running (``fleet serve``).
    """
    supervisor = _fleet_supervisor(args) if args.action == "run" else None
    return _drive_shards(args, run, _fleet_map_path(args), supervisor)


def _fleet_serve(args, run) -> int:
    """Supervise a fleet until SIGTERM/SIGINT; optional exposition file."""
    import signal

    supervisor = _fleet_supervisor(args)
    stop: list[int] = []

    def _request_stop(signum, frame) -> None:
        stop.append(signum)

    previous = {signum: signal.signal(signum, _request_stop)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        with supervisor:
            print(f"fleet: {args.shards} shard(s) serving under "
                  f"{args.root} (map {supervisor.map_path})", flush=True)
            run.add_artifact(args.root, digest=False)
            last_export = 0.0
            while not stop:
                for index in supervisor.poll():
                    print(f"fleet: restarted shard {index}", flush=True)
                now = time.monotonic()
                if args.prom_out and now - last_export >= args.interval:
                    _write_prom(args.prom_out, supervisor.fleet_snapshot())
                    last_export = now
                time.sleep(0.1)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("fleet stopped cleanly")
    return 0


def _fleet_top(args, run) -> int:
    """Live fleet telemetry dashboard (``--once`` for CI assertions)."""
    from repro.obs.aggregate import collect_fleet_metrics, render_fleet_top

    map_path = _fleet_map_path(args)
    previous = None
    try:
        while True:
            snapshot = collect_fleet_metrics(
                map_path, timeout_s=max(args.interval, 2.0))
            if previous is not None:
                print()
            print(render_fleet_top(snapshot, previous), flush=True)
            if args.prom_out:
                _write_prom(args.prom_out, snapshot)
            _write_json(args.json_out, snapshot, "fleet snapshot")
            if args.once:
                return 0 if snapshot["totals"]["alive"] else 1
            previous = snapshot
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_fleet(args, run) -> int:
    actions = {"run": _fleet_load, "serve": _fleet_serve,
               "drive": _fleet_load, "top": _fleet_top}
    return actions[args.action](args, run)


def cmd_chaos(args, run) -> int:
    from repro.service.chaos import SCENARIOS, run_chaos, write_chaos_report

    names = args.scenario or sorted(SCENARIOS)
    report = run_chaos(names, args.root, shards=args.shards,
                       tenants=args.tenants, requests=args.requests,
                       seed=args.seed)
    for scenario in report["scenarios"]:
        print(f"chaos {scenario['scenario']:<16} passed "
              f"({scenario['elapsed_s']:.2f}s)")
    for violation in report["violations"]:
        print(f"chaos {violation['scenario']:<16} FAILED: "
              f"{violation['violation']}", file=sys.stderr)
    if args.json_out:
        write_chaos_report(report, args.json_out)
        run.add_artifact(args.json_out)
        print(f"chaos report written to {args.json_out}")
    run.set_summary({
        "kind": "chaos",
        "scenarios": [s["scenario"] for s in report["scenarios"]],
        "passed": report["passed"],
        "violations": len(report["violations"])})
    if not report["passed"]:
        run.record_failure(f"{len(report['violations'])} chaos "
                           f"invariant violation(s)")
        return 5
    print(f"chaos suite passed: {len(report['scenarios'])} "
          f"scenario(s), wear-exactness invariants held")
    return 0


def cmd_pipeline(args, run) -> int:
    from repro.runs.pipeline import plan_pipeline, run_pipeline
    from repro.runs.settings import load_settings

    if args.action == "plan":
        settings = load_settings(args.settings)
        print(f"pipeline {settings.name!r}: {len(settings.steps)} "
              f"step(s), settings digest {settings.digest[:12]}")
        for row in plan_pipeline(settings):
            after = (f" (after {', '.join(row['after'])})"
                     if row["after"] else "")
            print(f"  {row['step']}: {row['kind']} "
                  f"seed={row['seed']}{after}")
        return 0
    report = run_pipeline(args.settings, db_path=args.runs_db,
                          resume=args.resume, workdir=args.workdir)
    for step in report["steps"]:
        if step["action"] == "failed":
            print(f"pipeline step {step['step']!r} FAILED: "
                  f"{step.get('error')}", file=sys.stderr)
    print(f"pipeline {report['pipeline']!r} {report['outcome']} in "
          f"{report['elapsed_s']:.2f}s "
          f"(run {report['pipeline_id'][:12]}, "
          f"workdir {report['workdir']})")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
            handle.write("\n")
        print(f"pipeline report written to {args.json_out}")
    return 0 if report["outcome"] == "ok" else 1


def cmd_report(args, run) -> int:
    from repro.runs import report as runs_report
    from repro.runs.store import RunStore

    with RunStore(args.runs_db) as store:
        if args.what == "runs":
            payload = runs_report.runs_payload(
                store, limit=args.limit, subcommand=args.subcommand,
                outcome=args.outcome)
            text = runs_report.render_runs(payload)
        elif args.what == "bench" and args.trend:
            payload = runs_report.bench_trend(
                store, scale=args.scale, limit=args.limit)
            text = runs_report.render_bench_trend(payload)
        elif args.what == "bench":
            payload = runs_report.compare_bench_runs(
                store, baseline=args.baseline, candidate=args.candidate)
            text = runs_report.render_bench_delta(payload)
            run.set_summary({"kind": "report",
                             "baseline": payload["baseline"]["id"],
                             "candidate": payload["candidate"]["id"],
                             "rows": len(payload["rows"])})
        elif args.what == "pipeline":
            payload = runs_report.pipeline_payload(store, args.run)
            text = runs_report.render_pipeline(payload)
        else:
            payload = runs_report.campaigns_payload(store,
                                                    limit=args.limit)
            text = runs_report.render_campaigns(payload)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=str))
    else:
        print(text)
    return 0


def _capacity_observations(args) -> dict:
    """Per-tenant wear observations, from ledger dirs or a live fleet."""
    if bool(args.root) == bool(args.ledger):
        raise ConfigurationError(
            "capacity fit needs exactly one observation source: "
            "--ledger DIR (offline, repeatable) or --root DIR (live "
            "fleet)")
    if args.root:
        from repro.obs.aggregate import collect_fleet_metrics

        snapshot = collect_fleet_metrics(_fleet_map_path(args))
        observations = snapshot.get("observations") or {}
        if not observations:
            raise ConfigurationError(
                f"no shard under {args.root} reported wear observations "
                f"(is the fleet serving?)")
        return observations
    from repro.service.hub import WearHub
    from repro.service.ledger import WearLedger

    observations: dict = {}
    for directory in args.ledger:
        # Offline fits recover the hub from the durable history alone;
        # the ledger flock means a live instance's directory is refused
        # rather than double-read mid-write.
        ledger = WearLedger(directory)
        try:
            hub = WearHub(ledger)
            hub.recover()
            shard_obs = hub.wear_observations()
        finally:
            ledger.close()
        duplicates = sorted(set(shard_obs) & set(observations))
        if duplicates:
            raise ConfigurationError(
                f"tenant(s) {', '.join(duplicates)} appear in more than "
                f"one ledger; each tenant's wear history is single-homed")
        observations.update(shard_obs)
    if not observations:
        raise ConfigurationError(
            "the ledger(s) hold no provisioned tenants to fit")
    return observations


def _render_capacity_fit(payload: dict) -> str:
    estimate = payload["estimate"]
    lines = [
        f"capacity fit: alpha={estimate['alpha']:.3f} "
        f"[{estimate['alpha_ci'][0]:.3f}, {estimate['alpha_ci'][1]:.3f}] "
        f"beta={estimate['beta']:.3f} "
        f"[{estimate['beta_ci'][0]:.3f}, {estimate['beta_ci'][1]:.3f}] "
        f"({estimate['confidence']:.0%} bootstrap CIs)",
        f"  pooled from {estimate['observations']} switch observations "
        f"({estimate['failures']} failures, {estimate['censored']} "
        f"censored) across {len(payload['forecasts'])} tenant(s)",
    ]
    header = (f"  {'tenant':<14} {'remaining':>24} "
              f"{'p(exhaust<=' + str(payload['horizon']) + ')':>16} "
              f"{'engine':>8}")
    lines.append(header)
    for name, forecast in payload["forecasts"].items():
        if forecast["exhausted"]:
            remaining = "exhausted"
            risk = "-"
        else:
            lo, hi = forecast["interval"]
            remaining = (f"{forecast['remaining_mean']:.0f} "
                         f"[{lo:.0f}, {hi:.0f}]")
            risk = f"{forecast['p_exhaust']:.0%}"
        lines.append(f"  {name:<14} {remaining:>24} {risk:>16} "
                     f"{forecast['engine_remaining']:>8}")
    return "\n".join(lines)


def _capacity_fit(args, run) -> int:
    from repro.capacity import (
        estimate_endurance,
        forecast_tenants,
        pooled_observations,
    )

    started = time.perf_counter()
    observations = _capacity_observations(args)
    values, events = pooled_observations(observations)
    rng = make_rng(args.seed)
    estimate = estimate_endurance(values, events, resamples=args.resamples,
                                  confidence=args.confidence, rng=rng)
    forecasts = forecast_tenants(observations, estimate, draws=args.draws,
                                 confidence=args.confidence,
                                 horizon=args.horizon, rng=rng)
    payload = {
        "source": args.root or list(args.ledger),
        "horizon": args.horizon,
        "estimate": estimate.to_payload(),
        "forecasts": {name: forecast.to_payload()
                      for name, forecast in forecasts.items()},
        "wall_s": time.perf_counter() - started,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render_capacity_fit(payload))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        run.add_artifact(args.json_out)
        if not args.json:
            print(f"capacity fit written to {args.json_out}")
    run.set_summary({
        "kind": "capacity-fit",
        "alpha": estimate.alpha,
        "beta": estimate.beta,
        "observations": estimate.observations,
        "failures": estimate.failures,
        "tenants": len(forecasts)})
    return 0


def _capacity_calibrate(args, run) -> int:
    from repro.capacity import calibration_sweep, check_calibration

    payload = calibration_sweep(seed=args.seed)
    problems = check_calibration(payload)
    payload["problems"] = problems
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        errors = " -> ".join(
            f"{err:.4f}" for _, err in
            sorted(payload["median_rel_err_by_length"].items(),
                   key=lambda item: int(item[0])))
        lo, hi = payload["coverage_bounds"]
        print(f"capacity calibration: coverage "
              f"{payload['coverage']:.3f} (bounds [{lo}, {hi}]), "
              f"median rel err by trace length {errors}, "
              f"{payload['fits']} fits in {payload['wall_s']:.2f}s")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        run.add_artifact(args.json_out)
    run.set_summary({
        "kind": "capacity-calibrate",
        "coverage": payload["coverage"],
        "gate_ok": payload["gate_ok"],
        "fits": payload["fits"]})
    if problems:
        for problem in problems:
            print(f"calibration: {problem}", file=sys.stderr)
        run.record_failure(f"{len(problems)} calibration problem(s)")
    elif not args.json:
        print("calibration gate: PASS")
    return 5 if problems and args.gate else 0


def cmd_runs(args, run) -> int:
    from repro.runs.store import RunStore

    with RunStore(args.runs_db) as store:
        store.resolve_interrupted()
        report = store.gc(keep_days=args.keep_days,
                          keep_last=args.keep_last,
                          dry_run=not args.apply)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    mode = "applied" if args.apply else "dry run; pass --apply to delete"
    verb = "deleted" if args.apply else "would delete"
    print(f"runs gc ({mode}): {verb} "
          f"{len(report['deleted_runs'])} of {report['examined']} "
          f"run(s) and {report['deleted_artifact_rows']} artifact "
          f"row(s); {len(report['dead_artifacts'])} dead artifact "
          f"path(s)")
    for run_id in report["deleted_runs"]:
        print(f"  run {run_id[:12]}")
    for entry in report["dead_artifacts"]:
        print(f"  dead path {entry['path']} "
              f"(run {entry['run_id'][:12]})")
    return 0


def cmd_capacity(args, run) -> int:
    actions = {"fit": _capacity_fit, "calibrate": _capacity_calibrate}
    return actions[args.action](args, run)


def _default_capacity_seed(args) -> None:
    """Resolve ``capacity --seed`` before its run row records it."""
    if args.command == "capacity" and args.seed is None:
        # The calibrate gate only holds at its pinned sweep seed; fit
        # has no such pin and defaults like every other subcommand.
        from repro.capacity.calibrate import DEFAULT_SEED

        args.seed = DEFAULT_SEED if args.action == "calibrate" else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Limited-use security architectures from device "
                    "wearout (ISCA 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="size one architecture")
    _add_design_arguments(p_design)
    p_design.add_argument("--save", metavar="FILE", default=None,
                          help="write the design as JSON to FILE")
    _add_record_arguments(p_design)
    p_design.set_defaults(func=cmd_design)

    p_advise = sub.add_parser(
        "advise", help="search encodings under area/energy constraints")
    _add_design_arguments(p_advise)
    p_advise.add_argument("--max-area-mm2", type=float, default=None)
    p_advise.add_argument("--max-energy-j", type=float, default=None)
    p_advise.add_argument("--max-devices", type=int, default=None)
    p_advise.set_defaults(func=cmd_advise)

    p_sweep = sub.add_parser("sweep", help="device-count sweep over alpha")
    p_sweep.add_argument("--alpha-min", type=float, default=10.0)
    p_sweep.add_argument("--alpha-max", type=float, default=20.0)
    p_sweep.add_argument("--step", type=float, default=1.0)
    p_sweep.add_argument("--beta", type=float, required=True)
    _add_criteria_arguments(p_sweep)
    p_sweep.add_argument("--log-y", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_attack = sub.add_parser("attack",
                              help="brute-force analysis of a design")
    _add_design_arguments(p_attack)
    p_attack.add_argument("--legitimate-uses", type=int, default=0)
    p_attack.set_defaults(func=cmd_attack)

    p_pads = sub.add_parser("pads", help="one-time-pad design analysis")
    _add_device_arguments(p_pads)
    p_pads.add_argument("--height", type=int, default=8)
    p_pads.add_argument("--copies", type=int, default=128)
    p_pads.add_argument("--k", type=int, default=8)
    p_pads.add_argument("--design", action="store_true",
                        help="solve for the cheapest (H, n, k) instead "
                             "of analyzing the given one")
    p_pads.add_argument("--receiver-min", type=float, default=0.999)
    p_pads.add_argument("--adversary-max", type=float, default=1e-6)
    p_pads.set_defaults(func=cmd_pads)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo access bounds for a design")
    _add_design_arguments(p_sim)
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run one substream per trial, sharded across "
                            "N worker processes (1: in this process; "
                            "default with --checkpoint: all CPUs); these "
                            "per-trial runs are bit-identical for any N. "
                            "Without --workers and --checkpoint the "
                            "trials run batched on one generator in this "
                            "process, which gives different numbers")
    p_sim.add_argument("--checkpoint", metavar="FILE", default=None,
                       help="checkpoint file: created/updated during the "
                            "run, resumed from when present (switches to "
                            "per-trial substreams)")
    p_sim.add_argument("--checkpoint-every", type=int, default=50,
                       help="trials between checkpoint writes")
    _add_obs_arguments(p_sim)
    _add_record_arguments(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_faults = sub.add_parser(
        "faults", help="checkpointed fault-injection campaign")
    _add_design_arguments(p_faults)
    p_faults.add_argument("--trials", type=int, default=20)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--checkpoint", metavar="FILE", default=None,
                          help="checkpoint file: created/updated during "
                               "the run, resumed from when present")
    p_faults.add_argument("--checkpoint-every", type=int, default=10,
                          help="trials between checkpoint writes")
    p_faults.add_argument("--workers", type=int, default=None, metavar="N",
                          help="shard trials across N worker processes "
                               "(default: all CPUs; results are "
                               "bit-identical for any N)")
    p_faults.add_argument("--misfire-rate", type=float, default=0.0,
                          help="P[transient misfire] per actuation")
    p_faults.add_argument("--premature-rate", type=float, default=0.0,
                          help="P[premature permanent fracture] per "
                               "actuation")
    p_faults.add_argument("--stuck-closed", type=float, default=0.0,
                          help="P[a worn-out switch sticks closed]")
    p_faults.add_argument("--corruption-rate", type=float, default=0.0,
                          help="P[bit-flipped share] per readout")
    p_faults.add_argument("--timeout-rate", type=float, default=0.0,
                          help="P[readout timeout] per readout")
    p_faults.add_argument("--temperature", type=float, default=25.0,
                          help="operating temperature in C (drift "
                               "accelerates wear above 25)")
    p_faults.add_argument("--no-rs-fallback", action="store_true",
                          help="disable the Reed-Solomon degradation "
                               "path (pure Shamir)")
    p_faults.add_argument("--max-attempts", type=int, default=4)
    p_faults.add_argument("--quarantine-after", type=int, default=3)
    p_faults.add_argument("--max-accesses", type=int, default=None,
                          help="per-trial access cap (default: a little "
                               "past the security ceiling)")
    _add_obs_arguments(p_faults)
    _add_record_arguments(p_faults)
    p_faults.set_defaults(func=cmd_faults)

    p_exp = sub.add_parser("experiments", help="run paper artifacts")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")
    _add_obs_arguments(p_exp)
    _add_record_arguments(p_exp)
    p_exp.set_defaults(func=cmd_experiments)

    p_bench = sub.add_parser(
        "bench", help="pinned perf workloads -> BENCH_<date>.json")
    p_bench.add_argument("--scale", choices=("tiny", "smoke", "full"),
                         default="smoke",
                         help="workload sizing (tiny: tests, smoke: CI, "
                              "full: milestone reports)")
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="write the JSON bench report to FILE")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="override per-workload repeat count")
    p_bench.add_argument("--check-overhead", type=float, default=None,
                         metavar="PCT",
                         help="exit 3 if observability-disabled overhead "
                              "on the MC hot path exceeds PCT percent")
    p_bench.add_argument("--compare", metavar="FILE", default=None,
                         help="diff this run against a baseline bench "
                              "report; exit 4 on any throughput "
                              "regression beyond the threshold.  "
                              "'auto' resolves the baseline from the "
                              "run registry (most recent successful "
                              "bench run on this host at this scale)")
    p_bench.add_argument("--require-throughput", metavar="NAME=FLOOR",
                         action="append", default=[],
                         help="fail (exit 5) unless workload NAME ran at "
                              ">= FLOOR units/s; repeatable")
    p_bench.add_argument("--compare-threshold", type=float, default=0.2,
                         metavar="FRAC",
                         help="relative throughput-regression tolerance "
                              "for --compare (default: 0.2)")
    _add_obs_arguments(p_bench)
    _add_record_arguments(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the limited-use authorization service")
    p_serve.add_argument("--ledger", required=True, metavar="DIR",
                         help="wear-ledger directory (WAL + snapshots)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--window-ms", type=float, default=2.0,
                         help="batching window in milliseconds, an upper "
                              "limit; a round closes sooner once every "
                              "open connection has a request queued "
                              "(default: 2)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="max access requests per engine round")
    p_serve.add_argument("--queue-cap", type=int, default=256,
                         help="queued-request cap before answering busy")
    p_serve.add_argument("--rate-limit", type=float, default=0.0,
                         help="per-tenant requests/s (0 disables)")
    p_serve.add_argument("--rate-burst", type=int, default=8,
                         help="per-tenant token-bucket burst")
    p_serve.add_argument("--snapshot-every", type=int, default=0,
                         help="rounds between ledger snapshots "
                              "(0: snapshot on drain only)")
    p_serve.add_argument("--segment-records", type=int, default=0,
                         help="rotate the WAL into a sealed archive "
                              "segment once it holds this many records "
                              "past the covering snapshot (0 disables; "
                              "requires --snapshot-every)")
    p_serve.add_argument("--ready-file", metavar="FILE", default=None,
                         help="write the bound host/port to FILE once "
                              "serving")
    p_serve.add_argument("--capacity-horizon", type=int, default=0,
                         help="enable the capacity advisor: forecast "
                              "exhaustion within this many accesses "
                              "(0 disables)")
    p_serve.add_argument("--capacity-warn", type=float, default=0.5,
                         help="annotate ok responses with a "
                              "renewal_warning once P[exhaustion "
                              "within horizon] reaches this")
    p_serve.add_argument("--capacity-refuse", type=float, default=0.0,
                         help="refuse accesses (status 'capacity', no "
                              "wear spent) once P[exhaustion within "
                              "horizon] reaches this (0: advisory "
                              "only)")
    p_serve.add_argument("--capacity-refresh", type=int, default=64,
                         help="accesses between advisor re-fits")
    p_serve.add_argument("--capacity-seed", type=int, default=0,
                         help="advisor bootstrap/forecast RNG seed")
    _add_obs_arguments(p_serve)
    _add_record_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="drive a running service with a seeded workload")
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=None)
    p_load.add_argument("--ready-file", metavar="FILE", default=None,
                        help="read the server address from FILE "
                             "(instead of --host/--port)")
    p_load.add_argument("--tenants", type=int, default=4)
    p_load.add_argument("--requests", type=int, default=100)
    p_load.add_argument("--concurrency", type=int, default=8)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--n", type=int, default=6,
                        help="switches per bank")
    p_load.add_argument("--k", type=int, default=2,
                        help="threshold shares per bank")
    p_load.add_argument("--copies", type=int, default=3,
                        help="banks per tenant connection")
    p_load.add_argument("--alpha", type=float, default=9.0)
    p_load.add_argument("--beta", type=float, default=6.0)
    p_load.add_argument("--scheme", choices=("shamir", "rs"),
                        default="shamir")
    p_load.add_argument("--misfire-rate", type=float, default=0.0)
    p_load.add_argument("--timeout-rate", type=float, default=0.0)
    p_load.add_argument("--corruption-rate", type=float, default=0.0)
    p_load.add_argument("--drain", action="store_true",
                        help="send a drain op after the workload")
    p_load.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the loadgen statistics to FILE")
    _add_retry_arguments(p_load)
    _add_obs_arguments(p_load)
    _add_record_arguments(p_load)
    p_load.set_defaults(func=cmd_loadgen)

    p_fleet = sub.add_parser(
        "fleet", help="sharded fleet operations (run/serve/drive/top)")
    p_fleet.add_argument("action", nargs="?", default="run",
                         choices=("run", "serve", "drive", "top"),
                         help="run: spawn + drive + stop (default); "
                              "serve: supervise until SIGTERM; "
                              "drive: load a running fleet; "
                              "top: live telemetry dashboard")
    p_fleet.add_argument("--root", required=True, metavar="DIR",
                         help="fleet root directory (per-shard ledgers, "
                              "ready files, fleet map)")
    p_fleet.add_argument("--shards", type=int, default=2)
    p_fleet.add_argument("--tenants", type=int, default=8)
    p_fleet.add_argument("--requests", type=int, default=200)
    p_fleet.add_argument("--concurrency", type=int, default=8)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--window-ms", type=float, default=2.0,
                         help="per-shard batching window in milliseconds, "
                              "an upper limit; a round closes sooner once "
                              "every open connection has a request queued")
    p_fleet.add_argument("--max-batch", type=int, default=64)
    p_fleet.add_argument("--queue-cap", type=int, default=256)
    p_fleet.add_argument("--snapshot-every", type=int, default=16)
    p_fleet.add_argument("--segment-records", type=int, default=0,
                         help="per-shard WAL segment rotation threshold "
                              "(0 disables)")
    p_fleet.add_argument("--shard-trace", action="store_true",
                         help="spawn shards with per-shard JSONL trace "
                              "files (raw material for merged fleet "
                              "timelines)")
    p_fleet.add_argument("--interval", type=float, default=2.0,
                         help="seconds between top refreshes / serve "
                              "exposition rewrites (default: 2)")
    p_fleet.add_argument("--once", action="store_true",
                         help="top: render one snapshot and exit "
                              "(exit 1 if no shard answered)")
    p_fleet.add_argument("--prom-out", metavar="FILE", default=None,
                         help="write a Prometheus-style text exposition "
                              "of the fleet snapshot to FILE "
                              "(rewritten atomically each refresh)")
    p_fleet.add_argument("--json-out", metavar="FILE", default=None,
                         help="write the fleet statistics (run/drive) "
                              "or snapshot (top) to FILE")
    _add_retry_arguments(p_fleet)
    _add_obs_arguments(p_fleet)
    _add_record_arguments(p_fleet)
    p_fleet.set_defaults(func=cmd_fleet)

    p_chaos = sub.add_parser(
        "chaos", help="scripted fault scenarios asserting wear-exactness")
    p_chaos.add_argument("--root", required=True, metavar="DIR",
                         help="scratch directory for scenario fleets")
    p_chaos.add_argument("--scenario", action="append", default=None,
                         choices=("kill-mid-batch", "torn-tail",
                                  "restart-storm", "retry-race"),
                         help="run one named scenario (repeatable; "
                              "default: all)")
    p_chaos.add_argument("--shards", type=int, default=2)
    p_chaos.add_argument("--tenants", type=int, default=6)
    p_chaos.add_argument("--requests", type=int, default=60)
    p_chaos.add_argument("--seed", type=int, default=11)
    p_chaos.add_argument("--json-out", metavar="FILE", default=None,
                         help="write the chaos report to FILE")
    _add_obs_arguments(p_chaos)
    _add_record_arguments(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_pipe = sub.add_parser(
        "pipeline", help="run a declarative multi-step campaign "
                         "pipeline from a settings file")
    p_pipe.add_argument("action", choices=("run", "plan"),
                        help="run: execute (and record) the pipeline; "
                             "plan: print the execution order only")
    p_pipe.add_argument("settings", metavar="SETTINGS.toml",
                        help="pipeline settings file (see docs/runs.md)")
    p_pipe.add_argument("--resume", action="store_true",
                        help="resume the most recent pipeline run with "
                             "the same settings digest, skipping steps "
                             "already recorded ok")
    p_pipe.add_argument("--workdir", metavar="DIR", default=None,
                        help="step artifact directory (default: the "
                             "settings file's workdir)")
    p_pipe.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the pipeline report to FILE")
    _add_runs_db_argument(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_report = sub.add_parser(
        "report", help="cross-run comparisons from the run registry")
    p_report.add_argument("what",
                          choices=("runs", "bench", "pipeline",
                                   "campaigns"),
                          help="runs: recent run listing; bench: "
                               "throughput delta between two recorded "
                               "bench runs; pipeline: one pipeline and "
                               "its steps; campaigns: fault/chaos "
                               "outcomes")
    _add_runs_db_argument(p_report)
    p_report.add_argument("--json", action="store_true",
                          help="emit the payload as JSON instead of "
                               "ascii tables")
    p_report.add_argument("--limit", type=int, default=20,
                          help="max rows for runs/campaigns, max runs "
                               "charted by bench --trend")
    p_report.add_argument("--trend", action="store_true",
                          help="bench: chart per-workload throughput "
                               "across the latest same-scale ok runs "
                               "instead of diffing two")
    p_report.add_argument("--scale", default=None,
                          choices=("tiny", "smoke", "full"),
                          help="bench --trend: pin the scale (default: "
                               "the most recent bench run's)")
    p_report.add_argument("--subcommand", default=None,
                          help="runs: filter by subcommand")
    p_report.add_argument("--outcome", default=None,
                          choices=("running", "ok", "failed",
                                   "interrupted"),
                          help="runs: filter by outcome")
    p_report.add_argument("--baseline", metavar="RUN", default=None,
                          help="bench: baseline run id prefix "
                               "(default: previous comparable run)")
    p_report.add_argument("--candidate", metavar="RUN", default=None,
                          help="bench: candidate run id prefix "
                               "(default: most recent bench run)")
    p_report.add_argument("--run", metavar="RUN", default=None,
                          help="pipeline: run id prefix (default: the "
                               "most recent pipeline)")
    p_report.set_defaults(func=cmd_report)

    p_runs = sub.add_parser(
        "runs", help="run-registry maintenance")
    p_runs.add_argument("action", choices=("gc",),
                        help="gc: prune old runs and dead artifact "
                             "rows (dry run unless --apply)")
    p_runs.add_argument("--keep-days", type=float, default=None,
                        metavar="DAYS",
                        help="delete finished runs older than DAYS")
    p_runs.add_argument("--keep-last", type=int, default=None,
                        metavar="N",
                        help="always keep each subcommand's newest N "
                             "runs, whatever their age")
    p_runs.add_argument("--apply", action="store_true",
                        help="actually delete (default: report only)")
    p_runs.add_argument("--json", action="store_true",
                        help="emit the gc report as JSON")
    _add_runs_db_argument(p_runs)
    p_runs.set_defaults(func=cmd_runs)

    p_cap = sub.add_parser(
        "capacity", help="online endurance estimation and forecasting")
    p_cap.add_argument("action", choices=("fit", "calibrate"),
                       help="fit: censored Weibull fit + per-tenant "
                            "remaining-use forecasts from observed "
                            "wear; calibrate: pinned ground-truth "
                            "coverage sweep")
    p_cap.add_argument("--ledger", metavar="DIR", action="append",
                       default=[],
                       help="fit: wear-ledger directory to recover "
                            "observations from (repeatable; offline)")
    p_cap.add_argument("--root", metavar="DIR", default=None,
                       help="fit: poll a live fleet's shards for "
                            "observations instead of reading ledgers")
    p_cap.add_argument("--horizon", type=int, default=0,
                       help="accesses ahead for the exhaustion "
                            "probability (0: report intervals only)")
    p_cap.add_argument("--resamples", type=int, default=160,
                       help="bootstrap resamples for the parameter CIs")
    p_cap.add_argument("--draws", type=int, default=256,
                       help="predictive Monte Carlo draws per tenant")
    p_cap.add_argument("--confidence", type=float, default=0.9,
                       help="two-sided CI / forecast-interval level")
    p_cap.add_argument("--seed", type=int, default=None,
                       help="fit: bootstrap/forecast RNG seed "
                            "(default 0); calibrate: sweep base seed "
                            "(default: the pinned gate seed)")
    p_cap.add_argument("--gate", action="store_true",
                       help="calibrate: exit 5 unless coverage lands "
                            "in bounds and the error curve shrinks "
                            "with trace length")
    p_cap.add_argument("--json", action="store_true",
                       help="emit the payload as JSON instead of text")
    p_cap.add_argument("--json-out", metavar="FILE", default=None,
                       help="also write the payload to FILE")
    _add_obs_arguments(p_cap)
    _add_record_arguments(p_cap)
    p_cap.set_defaults(func=cmd_capacity)
    return parser


def run_command(args, run) -> int:
    """Run one parsed command line under *run*, an open run recorder.

    The one path for ``main`` and for pipeline steps, which each open
    the row: the handler runs inside the observability session and a
    ``cli.<subcommand>`` span, and a nonzero exit marks the run row
    failed unless the handler already recorded why.
    """
    with _obs_session(args), OBS.span(f"cli.{args.command}"):
        code = args.func(args, run)
        if code and run.failure is None:
            run.record_failure(f"{args.command} exited {code}")
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _default_capacity_seed(args)
    try:
        with _recorder(args) as run:
            code = run_command(args, run)
        sys.stdout.flush()
        return code
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``).  Point
        # the descriptor at /dev/null so the interpreter's exit flush
        # cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
