"""Compare two benchmark result files, metric by metric.

    python bench/compare.py A.json B.json

A and B are written by ``bench/run.py --out`` (use ``--passes 3`` or
more, so each side has a spread).  For every workload and every
end-to-end metric in ``BENCHMARK.json``, B's median is judged against
A's with that metric's bound:

- ``worse`` / ``better``: B moved past the bound in that direction;
- ``within``: it did not;
- ``unresolved``: either side's spread (interquartile range over median
  of its passes) exceeds the bound, so the runs cannot tell.

``error_rate`` (failed over attempted) is judged with a bound of 0: any
rise is worse.  A workload that one side lacks is ``missing``, and one
with a pass that crashed on either side is ``failed``: a pass that
printed no result, or whose exit code disagrees with its result
(``run.py`` exits 1 exactly when an output was wrong).  Exits 1 when any
verdict is ``worse``, ``missing`` or ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

from stats import spread

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

#: Verdicts that make the comparison fail.
FAILING = ("worse", "missing", "failed")


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """B's verdict against A, and B's median change as a share of A's."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    change = (b_median - a_median) / a_median
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "within", change


def _crashed(run: dict) -> bool:
    return ("metrics" not in run
            or run.get("exit_code") != (0 if run.get("correct") else 1))


def compare(a: dict, b: dict, metrics: list[dict]) -> list[tuple]:
    """``(workload, metric, a_median, b_median, change, verdict)`` rows."""
    rows = []
    for workload in dict.fromkeys([*a["workloads"], *b["workloads"]]):
        a_runs, b_runs = (side["workloads"].get(workload, {}).get("passes")
                          for side in (a, b))
        if not a_runs or not b_runs:
            rows.append((workload, "*", None, None, None, "missing"))
            continue
        if any(_crashed(run) for run in a_runs + b_runs):
            rows.append((workload, "*", None, None, None, "failed"))
            continue
        for metric in metrics:
            name = metric["name"]
            a_vals = [run["metrics"][name]["value"] for run in a_runs]
            b_vals = [run["metrics"][name]["value"] for run in b_runs]
            result, change = verdict(a_vals, b_vals, metric["better"],
                                     metric["bound"])
            rows.append((workload, name, statistics.median(a_vals),
                         statistics.median(b_vals), change, result))
        a_err = max(run["failed"] / run["attempted"] for run in a_runs)
        b_err = max(run["failed"] / run["attempted"] for run in b_runs)
        rows.append((workload, "error_rate", a_err, b_err, b_err - a_err,
                     "worse" if b_err > a_err else "within"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline results JSON")
    parser.add_argument("b", help="results JSON judged against A")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    loaded = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    rows = compare(*loaded, metrics)
    print(f"{'workload':16} {'metric':18} {'A':>12} {'B':>12} "
          f"{'change':>8}  verdict")
    for workload, name, a_med, b_med, change, result in rows:
        cells = [f"{v:12.4g}" if v is not None else f"{'-':>12}"
                 for v in (a_med, b_med)]
        shown = f"{change:+8.1%}" if change is not None else f"{'-':>8}"
        print(f"{workload:16} {name:18} {cells[0]} {cells[1]} {shown}  "
              f"{result}")
    return 1 if any(row[-1] in FAILING for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
