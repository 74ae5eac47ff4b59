"""The benchmark of record: one workload run, or full passes.

One run, the form every measurement is made in::

    python3 bench/run.py --workload hub-10k --seed 0 --seconds 10 --trace 0

prints each metric by name with its unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``, whose spans ``--out FILE`` writes as
JSONL.  It exits 1 when any output was wrong.

Full passes, each workload in a fresh child interpreter::

    PYTHONPATH=src python bench/run.py --seed 0 --out results.json \\
        [--passes 3] [--trace SPANS_DIR]

``--trace`` adds a traced run right after each workload's first untraced
run and writes its spans to ``SPANS_DIR/<workload>.spans.jsonl``.
``bench/compare.py`` compares two results files.  Temporary ledgers
live under ``.bench_tmp`` at the root of the checkout and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

from spans import LAYERS, Tracer, layer_totals, self_times
from stats import best_of_repeats, latency_summary, windows

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

#: End-to-end metric -> unit.  ``error_rate`` is carried by the result's
#: ``attempted`` and ``failed`` counts, and the p95 by the detail line:
#: it does not repeat well enough on every workload to gate a change.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Workload -> (latency op, throughput unit).
OPS = {
    "serve-64": ("request", "requests"),
    "hub-10k": ("round of 64 accesses", "accesses"),
    "faults-campaign": ("trial", "trials"),
    "recover-1k": ("full recovery", "WAL records replayed"),
}

#: Layers whose self time during set-up is reported on its own.
SETUP_LAYERS = (
    "service.hub.provision",
    "service.ledger.append_batch",
    "service.ledger.fsync",
    "engine.state.remaining_capacity",
    "connection.keystore.init",
    "codes.shamir.split_secret",
)

_SELF_NAMES = {
    "service.batcher.submit": "service.batcher.queue_wait_ms",
    "service.ledger.fsync": "service.ledger.fsync_ms",
}


def _use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"bench: no source tree at {SRC}; run the "
                         f"benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)


def _layer_names(layer: str) -> tuple[str, str]:
    return _SELF_NAMES.get(layer, f"{layer}.self_ms"), f"{layer}.calls"


def _setup_names(layer: str) -> tuple[str, str]:
    if layer == "service.ledger.fsync":
        return "setup.service.ledger.fsync_s", f"setup.{layer}.calls"
    return f"setup.{layer}.self_s", f"setup.{layer}.calls"


def per_layer_table() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    rows = []
    for layer, *_ in LAYERS:
        self_name, calls_name = _layer_names(layer)
        rows += [(self_name, "ms", "lower"), (calls_name, "count", "lower")]
    rows += [
        ("service.batcher.batch_size_mean", "count", "higher"),
        ("connection.resilient.availability", "ratio", "higher"),
        ("connection.resilient.retries", "count", "lower"),
        ("bench.op_wall_ms", "ms", "lower"),
        ("bench.unattributed_ms", "ms", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
    ]
    for layer in SETUP_LAYERS:
        self_name, calls_name = _setup_names(layer)
        rows += [(self_name, "s", "lower"), (calls_name, "count", "lower")]
    rows += [("setup.other_layers_s", "s", "lower"),
             ("setup.unattributed_s", "s", "lower"),
             ("setup.wall_s", "s", "lower")]
    return rows


def end_to_end_metrics(result) -> tuple[dict, dict]:
    """The end-to-end metrics, and what they were taken over.

    Throughput and p50 are best-of estimates (see :mod:`stats`): from
    each op's fastest run where the workload repeats its ops, otherwise
    from the run's best window of a fiftieth of its ops.  The median
    run or window, the whole-run values and the p95 ride along in the
    detail.
    """
    phase = result.measured
    if phase.repeated:
        estimate = best_of_repeats(phase.log)
        taken_over = {"items": estimate["items"],
                      "fewest_runs": estimate["fewest_runs"]}
    else:
        estimate = windows(phase.log)
        taken_over = {"windows": estimate["windows"]}
    values = {
        "throughput_ops_s": estimate["best"]["throughput"],
        "latency_p50_ms": estimate["best"]["p50_ms"],
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mib": result.peak_rss_mib,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    whole = latency_summary(phase.latencies_s)
    detail = {
        **taken_over,
        "median": {"throughput_ops_s": estimate["median"]["throughput"],
                   "latency_p50_ms": estimate["median"]["p50_ms"]},
        "whole_run": {"throughput_ops_s": phase.throughput,
                      "latency_p50_ms": whole["p50_ms"],
                      "latency_p95_ms": whole["p95_ms"],
                      "samples": whole["samples"],
                      "p95_resolved": whole["p95_resolved"]},
    }
    return metrics, detail


def per_layer_metrics(result) -> dict:
    """Per-op layer self times and calls of the traced half, and the
    set-up's layer self times and calls.

    Within each group the layer self times plus the unattributed
    remainder add up to the wall time: ``bench.op_wall_ms`` per op
    (the mean op latency) and ``setup.wall_s`` for the set-up.
    """
    phase = result.traced
    selfs = self_times(result.spans)
    per_op = layer_totals(result.spans, selfs, phase.intervals)
    values = {}
    attributed = 0.0
    for layer, *_ in LAYERS:
        self_name, calls_name = _layer_names(layer)
        values[self_name] = per_op[layer]["self_s"] / phase.ops * 1e3
        values[calls_name] = per_op[layer]["calls"] / phase.ops
        attributed += values[self_name]
    sizes = per_op["service.hub.serve_round"]["sizes"]
    values["service.batcher.batch_size_mean"] = (statistics.fmean(sizes)
                                                 if sizes else 0.0)
    values["connection.resilient.availability"] = result.extra.get(
        "availability", 1.0)
    values["connection.resilient.retries"] = result.extra.get(
        "retries_per_trial", 0.0)
    op_wall = statistics.fmean(phase.latencies_s) * 1e3
    values["bench.op_wall_ms"] = op_wall
    values["bench.unattributed_ms"] = op_wall - attributed
    values["bench.trace_overhead_pct"] = 100.0 * (
        1.0 - phase.throughput / result.measured.throughput)

    setup = layer_totals(result.spans, selfs, [result.setup_window])
    named = 0.0
    for layer in SETUP_LAYERS:
        self_name, calls_name = _setup_names(layer)
        values[self_name] = setup[layer]["self_s"]
        values[calls_name] = setup[layer]["calls"]
        named += setup[layer]["self_s"]
    all_layers = sum(entry["self_s"] for entry in setup.values())
    wall = result.setup_window[1] - result.setup_window[0]
    values["setup.other_layers_s"] = all_layers - named
    values["setup.unattributed_s"] = wall - all_layers
    values["setup.wall_s"] = wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_table()}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            spans_path: str | None = None) -> int:
    """One measured run; prints the metrics and the result line.  A
    traced run writes its spans to ``spans_path`` when one is given."""
    from workloads import WORKLOADS  # imports repro: after the path check

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    tracer = Tracer() if trace else None
    try:
        result = WORKLOADS[workload](seed, seconds, workdir, tracer=tracer)
        if trace:
            metrics, measured = per_layer_metrics(result), {}
            if spans_path is not None:
                if "server_spans" in result.extra:
                    shutil.copyfile(result.extra["server_spans"], spans_path)
                else:
                    tracer.write_jsonl(spans_path)
        else:
            metrics, measured = end_to_end_metrics(result)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another run still uses it
            pass

    checks = result.checks
    phase = result.traced if trace else result.measured
    op, unit = OPS[workload]
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "op": op, "work_unit": unit, "ops": phase.ops,
        "work": phase.work, "setup_runs_s": result.setup_s,
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures, **measured,
    }
    print(f"# detail {json.dumps(detail)}")
    for failure in checks.failures:
        print(f"{workload}: WRONG OUTPUT: {failure}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


def host_facts() -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev,
            "platform": platform.platform()}


def _child(workload: str, seed: int, seconds: float, trace: bool,
           spans_dir: str | None) -> dict:
    """Run one workload in a fresh interpreter; returns its parsed result."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--out",
                    os.path.join(spans_dir, f"{workload}.spans.jsonl")]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, path]) if path else SRC)
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               env=env, timeout=900)
    lines = completed.stdout.splitlines()
    run = {"exit_code": completed.returncode}
    for line in lines:
        if line.startswith("# detail "):
            run["detail"] = json.loads(line[len("# detail "):])
        elif line.startswith("{"):
            run.update(json.loads(line))
        else:
            print(line, flush=True)
    return run


def run_passes(seed: int, seconds: float, passes: int, out: str,
               spans_dir: str | None) -> int:
    """``passes`` untraced passes over every workload, plus one traced
    run of each when ``spans_dir`` is given; writes ``out``."""
    from workloads import WORKLOADS

    results = {"kind": "bench-results", "seed": seed, "seconds": seconds,
               "host": host_facts(),
               "workloads": {name: {"passes": []} for name in WORKLOADS}}
    status = 0
    for index in range(passes):
        for name in WORKLOADS:
            entry = results["workloads"][name]
            runs = [_child(name, seed, seconds, False, None)]
            if spans_dir is not None and index == 0:
                runs.append(_child(name, seed, seconds, True, spans_dir))
                entry["traced"] = runs[-1]
            entry["passes"].append(runs[0])
            if any(run["exit_code"] or not run.get("correct")
                   for run in runs):
                status = 1
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None, choices=list(OPS),
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default=None,
                        help="with --workload: 0 or 1; otherwise a "
                             "directory for the traced runs' spans")
    parser.add_argument("--out", default=None,
                        help="with --workload --trace 1: write the spans "
                             "here; otherwise write the results JSON here")
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.passes < 1:
        parser.error("--seconds must be positive and --passes at least 1")
    _use_source_tree()
    if args.workload is not None:
        if args.trace not in (None, "0", "1"):
            parser.error("--trace takes 0 or 1 with --workload")
        return run_one(args.workload, args.seed, args.seconds,
                       args.trace == "1", args.out)
    if args.out is None:
        parser.error("give --workload for one run or --out for full passes")
    return run_passes(args.seed, args.seconds, args.passes, args.out,
                      args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
