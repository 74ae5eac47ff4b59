"""Pinned benchmark workloads and the ``BENCH_<date>.json`` perf report.

``repro bench`` runs a fixed suite of workloads - the hot paths of every
layer the observability subsystem instruments - with pinned seeds and
sizes, and emits a schema-versioned JSON report.  Committing one report
per milestone seeds the perf trajectory: future PRs prove a speedup by
diffing two reports of the same scale.  Only reports of the schema this
module writes (:data:`BENCH_SCHEMA_VERSION`) validate, so a committed
baseline is regenerated whenever the schema changes.

The suite also measures the cost of the instrumentation itself.
:func:`measure_disabled_overhead` is a paired A/B test on the Monte
Carlo hot path: arm A is :func:`_baseline_simulate_access_bounds` (a
verbatim transcription of ``sim.montecarlo.simulate_access_bounds`` from
before the observability subsystem landed - no ``OBS`` touches at all),
arm B is the instrumented function with observability *disabled*.  Arms
run interleaved and the overhead is reported from the per-arm minima
(the minimum is the standard noise-robust location estimate for
benchmark timings).  CI fails the build when B exceeds A by more than
3%, pinning the "zero cost when disabled" claim.

Besides its metadata, a report carries exactly what a gate reads: the
``workloads`` rows (``--compare`` and ``--require-throughput``), the
``overhead`` section (``--check-overhead``) and the ``memory`` section
(each representative workload's peak RSS, measured in a fresh
subprocess, which ``--compare`` gates as its ``mem.*`` rows).

Two reports of the same scale are diffed by
:func:`compare_bench_reports`, which flags any workload whose throughput
regressed by more than the threshold - ``repro bench --compare`` wires
this into CI.  Memory rows gate in the opposite direction: a workload
regresses when its candidate peak RSS *exceeds*
``baseline * (1 + threshold)``.

Wall-clock timestamps enter the report via :func:`time.strftime`; no
other randomness or clock state leaks in, so two runs of the same scale
on the same machine are directly comparable.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core.degradation import PAPER_CRITERIA, DesignPoint
from repro.core.sizing import size_architecture
from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError
from repro.obs.recorder import OBS
from repro.sim.rng import make_rng, substream

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SCALES",
    "compare_bench_reports",
    "measure_disabled_overhead",
    "measure_memory_ceilings",
    "render_bench_comparison",
    "render_bench_report",
    "run_bench_suite",
    "validate_bench_report",
    "write_bench_report",
]

BENCH_SCHEMA_VERSION = 7

#: Workload sizes per scale.  "smoke" finishes in a few seconds (CI);
#: "full" gives tighter percentiles for committed milestone reports;
#: "tiny" exists for the test suite.
SCALES: dict[str, dict] = {
    "tiny": {
        "repeats": 2,
        "mc_fast_trials": 20,
        "mc_checkpointed_trials": 4,
        "mc_hardware_trials": 2,
        "faults_trials": 2,
        "replay_days": 10,
        "pads_rounds": 1,
        "checkpoint_results": 50,
        "overhead_repeats": 2,
        "overhead_trials": 20,
        "svc_tenants": 2,
        "svc_requests": 12,
        "svc_concurrency": 4,
        "fleet_shards": 2,
        "fleet_tenants": 4,
        "fleet_requests": 16,
        "fleet_concurrency": 4,
        "capacity_instances": 16,
    },
    "smoke": {
        "repeats": 3,
        "mc_fast_trials": 300,
        "mc_checkpointed_trials": 30,
        "mc_hardware_trials": 5,
        "faults_trials": 6,
        "replay_days": 90,
        "pads_rounds": 4,
        "checkpoint_results": 1000,
        "overhead_repeats": 7,
        "overhead_trials": 400,
        "svc_tenants": 4,
        "svc_requests": 120,
        "svc_concurrency": 8,
        "fleet_shards": 2,
        "fleet_tenants": 6,
        "fleet_requests": 120,
        "fleet_concurrency": 8,
        "capacity_instances": 32,
    },
    "full": {
        "repeats": 7,
        "mc_fast_trials": 3000,
        "mc_checkpointed_trials": 200,
        "mc_hardware_trials": 20,
        "faults_trials": 20,
        "replay_days": 365,
        "pads_rounds": 16,
        "checkpoint_results": 5000,
        "overhead_repeats": 15,
        "overhead_trials": 2000,
        "svc_tenants": 8,
        "svc_requests": 600,
        "svc_concurrency": 16,
        "fleet_shards": 3,
        "fleet_tenants": 12,
        "fleet_requests": 600,
        "fleet_concurrency": 16,
        "capacity_instances": 48,
    },
}


# ----------------------------------------------------------------------
# Pinned designs.  Solved from fixed parameters (and memoized - the
# solver must not pollute the workload timings), so every report
# benchmarks the same architecture regardless of host.
@functools.lru_cache(maxsize=None)
def _bench_design(bound: int = 2000) -> DesignPoint:
    return size_architecture(10.0, 8.0, bound, k_fraction=0.10,
                             criteria=PAPER_CRITERIA, window="fractional")


# ----------------------------------------------------------------------
# Workloads.  Each returns (units_processed, unit_label); the harness
# times the call.
def _workload_mc_fast(params: dict, seed: int) -> tuple[int, str]:
    from repro.sim.montecarlo import simulate_access_bounds

    trials = params["mc_fast_trials"]
    simulate_access_bounds(_bench_design(), trials, make_rng(seed))
    return trials, "trials"


def _workload_mc_checkpointed(params: dict, seed: int) -> tuple[int, str]:
    from repro.sim.montecarlo import simulate_access_bounds_checkpointed

    trials = params["mc_checkpointed_trials"]
    with tempfile.TemporaryDirectory() as tmp:
        simulate_access_bounds_checkpointed(
            _bench_design(), trials, seed,
            checkpoint_path=os.path.join(tmp, "bench.ckpt"),
            checkpoint_every=max(trials // 4, 1))
    return trials, "trials"


def _workload_mc_hardware(params: dict, seed: int) -> tuple[int, str]:
    from repro.sim.montecarlo import simulate_access_bounds_hardware

    trials = params["mc_hardware_trials"]
    simulate_access_bounds_hardware(_bench_design(200), trials,
                                    make_rng(seed))
    return trials, "trials"


def _workload_faults_campaign(params: dict, seed: int) -> tuple[int, str]:
    from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign

    trials = params["faults_trials"]
    config = FaultCampaignConfig(misfire_rate=0.01, corruption_rate=0.01,
                                 timeout_rate=0.005)
    run_fault_campaign(_bench_design(200), config, trials=trials,
                       seed=seed)
    return trials, "trials"


def _workload_replay_trace(params: dict, seed: int) -> tuple[int, str]:
    from repro.sim.timeline import UsageProfile
    from repro.sim.traces import generate_trace, replay_trace

    rng = make_rng(seed)
    trace = generate_trace(UsageProfile(mean_daily=10.0),
                           params["replay_days"], rng)
    replay_trace([_bench_design(1000)], ["bench-0"], b"bench storage",
                 trace, rng)
    return len(trace), "events"


def _workload_pads_traverse(params: dict, seed: int) -> tuple[int, str]:
    from repro.pads.decision_tree import HardwareDecisionTree

    height, rounds = 8, params["pads_rounds"]
    device = WeibullDistribution(alpha=40.0, beta=8.0)
    rng = make_rng(seed)
    traversals = 0
    for round_index in range(rounds):
        leaves = [bytes([i % 256]) * 16 for i in range(2 ** (height - 1))]
        tree = HardwareDecisionTree(height, leaves, device, rng)
        for leaf in range(tree.n_paths):
            tree.traverse(format(leaf, f"0{height - 1}b"))
            traversals += 1
    return traversals, "traversals"


def _workload_checkpoint_roundtrip(params: dict, seed: int) -> tuple[int, str]:
    from repro.sim.checkpoint import load_checkpoint, save_checkpoint

    results = [{"served": i, "ok": True}
               for i in range(params["checkpoint_results"])]
    meta = {"seed": seed, "trials": len(results), "kind": "bench"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.ckpt")
        save_checkpoint(path, meta, results)
        load_checkpoint(path)
    return len(results), "results"


def _workload_svc_loadgen(params: dict, seed: int) -> tuple[int, str]:
    """One loopback :class:`~repro.service.server.WearService` campaign."""
    import asyncio

    from repro.service.client import run_loadgen
    from repro.service.server import ServiceConfig, WearService

    async def drive() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            config = ServiceConfig(ledger_dir=os.path.join(tmp, "ledger"),
                                   window_s=0.0005)
            service = WearService(config)
            host, port = await service.start()
            try:
                await run_loadgen(
                    [{"host": host, "port": port}],
                    tenants=params["svc_tenants"],
                    requests=params["svc_requests"],
                    concurrency=params["svc_concurrency"], seed=seed)
            finally:
                await service.shutdown()

    asyncio.run(drive())
    return params["svc_requests"], "requests"


def _workload_svc_fleet(params: dict, seed: int) -> tuple:
    """One supervised multi-shard fleet campaign.

    Real subprocess shards under a supervisor, so the campaign includes
    ledger recovery and tenant-hash routing, exactly what a deployment
    pays.  The wall time is self-reported: the ~seconds of shard process
    spawn and ready-file handshake would otherwise dominate (and jitter)
    the measurement; the gated number is steady-state routed throughput.
    """
    import asyncio

    from repro.service.client import run_loadgen
    from repro.service.supervisor import FleetSupervisor

    with tempfile.TemporaryDirectory() as tmp:
        supervisor = FleetSupervisor(
            os.path.join(tmp, "fleet"), params["fleet_shards"],
            window_s=0.0005, snapshot_every=16)
        with supervisor:
            stats = asyncio.run(run_loadgen(
                supervisor.map_path, tenants=params["fleet_tenants"],
                requests=params["fleet_requests"],
                concurrency=params["fleet_concurrency"], seed=seed))
    return params["fleet_requests"], "requests", stats["elapsed_s"]


def _workload_capacity_estimate(params: dict, seed: int) -> tuple[int, str]:
    """Time the censored-fit + forecast pipeline on ground-truth sweeps.

    The seed offset keeps the workload's substreams disjoint from the
    pinned sweep ``repro capacity calibrate --gate`` judges; accuracy is
    NOT judged here (small instance counts at tiny/smoke scales are too
    noisy for the gate),
    only fit+forecast throughput.  The tight (12, 8) gate cell is
    dropped: at 16 instances it can all-censor on unlucky seeds, and a
    timing row must never depend on luck.
    """
    from repro.capacity.calibrate import calibration_sweep

    payload = calibration_sweep(grid=((9.0, 5.0), (10.0, 3.5)),
                                instances=params["capacity_instances"],
                                resamples=40, draws=96,
                                seed=7000 + seed)
    return payload["fits"], "fits"


_WORKLOADS = (
    ("mc.fast", _workload_mc_fast),
    ("mc.checkpointed", _workload_mc_checkpointed),
    ("mc.hardware", _workload_mc_hardware),
    ("faults.campaign", _workload_faults_campaign),
    ("replay.trace", _workload_replay_trace),
    ("pads.traverse", _workload_pads_traverse),
    ("checkpoint.roundtrip", _workload_checkpoint_roundtrip),
    ("svc.loadgen", _workload_svc_loadgen),
    ("svc.fleet", _workload_svc_fleet),
    ("capacity.estimate", _workload_capacity_estimate),
)


def _baseline_simulate_access_bounds(design: DesignPoint, trials: int,
                                     rng: np.random.Generator,
                                     max_copies_per_chunk: int = 4_000_000,
                                     ) -> np.ndarray:
    """``simulate_access_bounds`` exactly as it was pre-instrumentation.

    Kept as the A-arm of the overhead test: any future instrumentation
    creep inside the hot loop shows up as an A/B gap here, even though
    the instrumented function only touches ``OBS`` outside the loop.
    """
    n, k, copies = design.n, design.k, design.copies
    per_trial_cells = copies * n
    chunk_trials = max(1, int(max_copies_per_chunk // max(per_trial_cells, 1)))
    totals = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(chunk_trials, trials - done)
        lifetimes = design.device.sample(size=(batch, copies, n), rng=rng)
        budgets = np.floor(lifetimes).astype(np.int64)
        if k == 1:
            bank_life = budgets.max(axis=2)
        else:
            part = np.partition(budgets, n - k, axis=2)
            bank_life = part[:, :, n - k]
        totals[done:done + batch] = bank_life.sum(axis=1)
        done += batch
    return totals


def measure_disabled_overhead(repeats: int = 7, trials: int = 400,
                              seed: int = 0) -> dict:
    """Paired A/B overhead of disabled observability on the MC hot path.

    Interleaves ``repeats`` timed runs of the uninstrumented baseline
    (A) and the instrumented-but-disabled function (B), both on the same
    pinned design and per-rep substreams, and reports
    ``overhead_pct = (min_B - min_A) / min_A * 100``.
    """
    from repro.sim.montecarlo import simulate_access_bounds

    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    design = _bench_design()
    was_enabled = OBS.enabled
    OBS.enabled = False
    try:
        a_times: list[float] = []
        b_times: list[float] = []
        # Warm both code paths (allocator, caches) before timing.
        _baseline_simulate_access_bounds(design, 2, substream(seed, 0))
        simulate_access_bounds(design, 2, substream(seed, 0))
        for rep in range(repeats):
            started = time.perf_counter()
            _baseline_simulate_access_bounds(design, trials,
                                             substream(seed, rep))
            a_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            simulate_access_bounds(design, trials, substream(seed, rep))
            b_times.append(time.perf_counter() - started)
    finally:
        OBS.enabled = was_enabled
    best_a, best_b = min(a_times), min(b_times)
    return {
        "hot_path": "simulate_access_bounds",
        "repeats": repeats,
        "trials": trials,
        "baseline_min_s": best_a,
        "baseline_median_s": sorted(a_times)[len(a_times) // 2],
        "instrumented_disabled_min_s": best_b,
        "instrumented_disabled_median_s": sorted(b_times)[len(b_times) // 2],
        "overhead_pct": (best_b - best_a) / best_a * 100.0,
    }


#: Workloads whose peak RSS is measured in fresh subprocesses.
MEMORY_WORKLOADS = ("mc.fast", "mc.hardware", "svc.loadgen")

#: The child measures one workload and prints its own peak RSS.  Run in
#: a fresh interpreter so the figure is a real per-workload ceiling, not
#: whatever high-water mark earlier workloads left in this process.
_MEMORY_CHILD = """\
import json, sys
from repro.obs.bench import SCALES, _WORKLOADS
from repro.obs.export import peak_rss_bytes
name, scale, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
dict(_WORKLOADS)[name](SCALES[scale], seed)
print(json.dumps({"peak_rss_bytes": peak_rss_bytes()}))
"""


def measure_memory_ceilings(scale: str, seed: int = 0,
                            workloads: tuple[str, ...] = MEMORY_WORKLOADS,
                            ) -> dict:
    """Peak RSS of representative workloads, one fresh child each."""
    import subprocess

    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown bench scale {scale!r}; choose from {sorted(SCALES)}")
    known = dict(_WORKLOADS)
    unknown = [name for name in workloads if name not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown memory workloads: {unknown}")
    import repro

    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    rows = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, "-c", _MEMORY_CHILD, name, scale, str(seed)],
            capture_output=True, text=True, env=env, check=False,
            timeout=600)
        if proc.returncode != 0:
            raise ConfigurationError(
                f"memory probe for {name!r} failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()}")
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        rss = int(payload["peak_rss_bytes"])
        rows.append({
            "name": name,
            "peak_rss_bytes": rss,
            "peak_rss_mib": rss / (1024 * 1024),
        })
    return {"platform": sys.platform, "workloads": rows}


def _summarize_times(times: list[float]) -> dict:
    ordered = sorted(times)
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "mean": math.fsum(ordered) / len(ordered),
        "max": ordered[-1],
    }


def run_bench_suite(scale: str = "smoke", seed: int = 0,
                    repeats: int | None = None) -> dict:
    """Run every pinned workload; return the JSON-safe perf report."""
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown bench scale {scale!r}; choose from "
            f"{sorted(SCALES)}")
    params = SCALES[scale]
    repeats = repeats if repeats is not None else params["repeats"]
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    workloads = []
    for name, workload in _WORKLOADS:
        times: list[float] = []
        units, unit_label = 0, ""
        # One untimed warmup: the first call pays one-off costs (module
        # imports, table builds, numpy dispatch caches) that made the
        # first timed repeat up to ~470x slower than the rest for some
        # workloads (mc.hardware), skewing mean/max while min stayed
        # honest.  The warmup seed is disjoint from the timed ones.
        workload(params, seed + repeats)
        for rep in range(repeats):
            started = time.perf_counter()
            measured = workload(params, seed + rep)
            elapsed = time.perf_counter() - started
            # A workload may self-report its wall time (third element)
            # when setup it should not be billed for dominates the
            # external timer - e.g. svc.fleet's subprocess spawn.
            units, unit_label = measured[0], measured[1]
            times.append(measured[2] if len(measured) > 2 else elapsed)
        wall = _summarize_times(times)
        workloads.append({
            "name": name,
            "repeats": repeats,
            "units": units,
            "unit": unit_label,
            "wall_s": wall,
            "throughput_per_s": units / wall["min"] if wall["min"] > 0
            else None,
        })
    overhead = measure_disabled_overhead(
        repeats=params["overhead_repeats"],
        trials=params["overhead_trials"], seed=seed)
    memory = measure_memory_ceilings(scale, seed=seed)
    from repro.runs.provenance import collect_provenance

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench-report",
        "date": time.strftime("%Y%m%d"),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale,
        "seed": seed,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "provenance": collect_provenance(),
        "workloads": workloads,
        "overhead": overhead,
        "memory": memory,
    }


#: Required keys of each report section.
_SECTION_KEYS = {
    "overhead": ("hot_path", "repeats", "trials", "baseline_min_s",
                 "instrumented_disabled_min_s", "overhead_pct"),
    "memory": ("platform", "workloads"),
}
#: Required keys of every row of a report's lists of rows, by
#: ``(section, list)``; section ``None`` is the report itself.
_ROW_KEYS = {
    (None, "workloads"): ("name", "repeats", "units", "unit", "wall_s",
                          "throughput_per_s"),
    ("memory", "workloads"): ("name", "peak_rss_bytes", "peak_rss_mib"),
}
_TOP_KEYS = ("schema_version", "kind", "date", "scale", "seed",
             "environment", "workloads", *_SECTION_KEYS)


def validate_bench_report(payload: dict) -> None:
    """Raise :class:`ConfigurationError` unless ``payload`` is a valid
    bench report of the schema this module writes."""
    if not isinstance(payload, dict) or payload.get("kind") != "bench-report":
        raise ConfigurationError("not a bench report (wrong kind)")
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"bench report schema {version!r} is not "
            f"{BENCH_SCHEMA_VERSION}; regenerate it with `repro bench`")
    missing = [key for key in _TOP_KEYS if key not in payload]
    if missing:
        raise ConfigurationError(
            f"bench report is missing top-level keys: {missing}")
    for section, required in _SECTION_KEYS.items():
        bad = [key for key in required if key not in payload[section]]
        if bad:
            raise ConfigurationError(
                f"bench report {section} section is missing {bad}")
    for (section, name), required in _ROW_KEYS.items():
        label = name if section is None else f"{section} {name}"
        rows = (payload if section is None else payload[section])[name]
        if not rows:
            raise ConfigurationError(f"bench report has no {label}")
        for row in rows:
            bad = [key for key in required if key not in row]
            if bad:
                raise ConfigurationError(
                    f"{label} row {row.get('name')!r} "
                    f"is missing {bad}")
    for workload in payload["workloads"]:
        for stat in ("min", "median", "mean", "max"):
            if stat not in workload["wall_s"]:
                raise ConfigurationError(
                    f"workload {workload['name']!r} wall_s lacks {stat!r}")


def compare_bench_reports(baseline: dict, candidate: dict,
                          threshold: float = 0.2) -> dict:
    """Per-workload throughput deltas between two bench reports.

    Both reports are validated and must share a scale (cross-scale
    throughputs are not comparable).  A workload *regresses* when its
    candidate throughput falls below ``baseline * (1 - threshold)``;
    workloads present in only one report are listed, not scored.

    Memory ceilings gate in the *opposite* direction: each workload in
    both ``memory`` sections regresses when its candidate peak RSS
    exceeds ``baseline * (1 + threshold)``.  Memory rows are reported
    separately (``memory_rows``) but feed the same ``regressions``
    verdict, prefixed ``mem.``.
    """
    validate_bench_report(baseline)
    validate_bench_report(candidate)
    if not 0 < threshold < 1:
        raise ConfigurationError("threshold must be in (0, 1)")
    if baseline["scale"] != candidate["scale"]:
        raise ConfigurationError(
            f"cannot compare scale {baseline['scale']!r} against "
            f"{candidate['scale']!r}; rerun at the baseline's scale")
    base_by_name = {w["name"]: w for w in baseline["workloads"]}
    cand_by_name = {w["name"]: w for w in candidate["workloads"]}
    rows = []
    for name in base_by_name:
        if name not in cand_by_name:
            continue
        base_tp = base_by_name[name]["throughput_per_s"]
        cand_tp = cand_by_name[name]["throughput_per_s"]
        if base_tp and cand_tp:
            delta_pct = (cand_tp - base_tp) / base_tp * 100.0
            regressed = cand_tp < base_tp * (1.0 - threshold)
        else:
            delta_pct, regressed = None, False
        rows.append({
            "name": name,
            "baseline_throughput_per_s": base_tp,
            "candidate_throughput_per_s": cand_tp,
            "delta_pct": delta_pct,
            "regressed": regressed,
        })
    memory_rows = []
    base_mem = {row["name"]: row for row in baseline["memory"]["workloads"]}
    cand_mem = {row["name"]: row
                for row in candidate["memory"]["workloads"]}
    for name in base_mem:
        if name not in cand_mem:
            continue
        base_rss = base_mem[name]["peak_rss_bytes"]
        cand_rss = cand_mem[name]["peak_rss_bytes"]
        if base_rss and cand_rss:
            delta_pct = (cand_rss - base_rss) / base_rss * 100.0
            regressed = cand_rss > base_rss * (1.0 + threshold)
        else:
            delta_pct, regressed = None, False
        memory_rows.append({
            "name": f"mem.{name}",
            "baseline_peak_rss_bytes": base_rss,
            "candidate_peak_rss_bytes": cand_rss,
            "delta_pct": delta_pct,
            "regressed": regressed,
        })
    return {
        "baseline": {"date": baseline["date"], "scale": baseline["scale"]},
        "candidate": {"date": candidate["date"],
                      "scale": candidate["scale"]},
        "threshold_pct": threshold * 100.0,
        "rows": rows,
        "memory_rows": memory_rows,
        "missing_in_candidate": sorted(set(base_by_name) - set(cand_by_name)),
        "new_in_candidate": sorted(set(cand_by_name) - set(base_by_name)),
        "regressions": ([row["name"] for row in rows if row["regressed"]]
                        + [row["name"] for row in memory_rows
                           if row["regressed"]]),
    }


def render_bench_comparison(comparison: dict) -> str:
    """The comparison as a text table plus a one-line verdict."""
    from repro.viz.ascii import table

    rows = []
    for row in comparison["rows"]:
        base_tp = row["baseline_throughput_per_s"]
        cand_tp = row["candidate_throughput_per_s"]
        rows.append((
            row["name"],
            f"{base_tp:,.0f}" if base_tp else "-",
            f"{cand_tp:,.0f}" if cand_tp else "-",
            f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None
            else "-",
            "REGRESSED" if row["regressed"] else "ok",
        ))
    text = table(("workload", "base /s", "cand /s", "delta", "status"),
                 rows,
                 title=f"bench compare: {comparison['baseline']['date']} "
                       f"-> {comparison['candidate']['date']} "
                       f"(scale={comparison['baseline']['scale']}, "
                       f"threshold {comparison['threshold_pct']:.0f}%)")
    notes = []
    memory_rows = comparison.get("memory_rows") or []
    if memory_rows:
        mem_table = table(
            ("workload", "base MiB", "cand MiB", "delta", "status"),
            [(row["name"],
              f"{row['baseline_peak_rss_bytes'] / 2**20:,.1f}",
              f"{row['candidate_peak_rss_bytes'] / 2**20:,.1f}",
              f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None
              else "-",
              "REGRESSED" if row["regressed"] else "ok")
             for row in memory_rows],
            title="peak RSS ceilings (regression = candidate above "
                  f"baseline + {comparison['threshold_pct']:.0f}%)")
        notes.append(mem_table)
    if comparison["missing_in_candidate"]:
        notes.append("missing in candidate: "
                     + ", ".join(comparison["missing_in_candidate"]))
    if comparison["new_in_candidate"]:
        notes.append("new in candidate: "
                     + ", ".join(comparison["new_in_candidate"]))
    regressions = comparison["regressions"]
    verdict = (f"{len(regressions)} workload(s) regressed beyond "
               f"{comparison['threshold_pct']:.0f}%: "
               + ", ".join(regressions)
               if regressions else "no workload regressed beyond "
               f"{comparison['threshold_pct']:.0f}%")
    return "\n".join([text, *notes, verdict])


def write_bench_report(payload: dict, path: str) -> None:
    """Validate and write one report as indented JSON."""
    validate_bench_report(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def render_bench_report(payload: dict) -> str:
    """The report's workload table, overhead line and RSS ceilings."""
    from repro.viz.ascii import table

    rows = []
    for workload in payload["workloads"]:
        throughput = workload["throughput_per_s"]
        rows.append((
            workload["name"],
            f"{workload['repeats']}",
            f"{workload['wall_s']['min'] * 1e3:,.1f}",
            f"{workload['wall_s']['median'] * 1e3:,.1f}",
            f"{throughput:,.0f} {workload['unit']}/s"
            if throughput else "-",
        ))
    text = table(("workload", "reps", "min ms", "median ms", "throughput"),
                 rows, title=f"bench {payload['date']} "
                             f"(scale={payload['scale']})")
    overhead = payload["overhead"]
    ceilings = ", ".join(
        f"{row['name']}={row['peak_rss_mib']:,.0f} MiB"
        for row in payload["memory"]["workloads"])
    return (f"{text}\n\n"
            f"observability-disabled overhead on "
            f"{overhead['hot_path']}: {overhead['overhead_pct']:+.2f}% "
            f"(A={overhead['baseline_min_s'] * 1e3:.1f} ms, "
            f"B={overhead['instrumented_disabled_min_s'] * 1e3:.1f} ms)\n"
            f"peak RSS ceilings: {ceilings}")
