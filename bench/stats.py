"""Percentiles, best-of estimates and spreads.

The benchmark host shares its CPUs.  The same op runs up to 1.5x to 2x
slower while other machines' work contends for them, in bursts from a
few milliseconds to most of a 40 s run.  The guest sees neither steal
time nor a CPU quota.  A value taken over a whole run inherits that
state, so the gated values are best-of estimates, the way ``timeit``
reports the best of its repeats:

- :func:`best_of_repeats`, for ops that can run again exactly (a fault
  trial from its substream, a recovery of the same ledger), takes each
  op's fastest run;
- :func:`windows`, for ops that change the state they run on (rounds,
  requests), slides a window of a fiftieth of the run's ops over it and
  takes the best window.

The median repeat or window rides along in each run's detail line: it
shows a cost that grows during a run, or stalls that leave a clean
stretch, which the best one can miss.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, insort
from collections import deque
from itertools import accumulate

__all__ = ["P95_MIN_SAMPLES", "WINDOW_SHARE", "nearest_rank",
           "latency_summary", "best_of_repeats", "windows", "spread"]

#: A p95 needs ten samples beyond it to repeat from run to run.
P95_MIN_SAMPLES = 200

#: Share of a run's ops in each window of :func:`windows`.  Over ten
#: seeds a fiftieth kept every gated spread within 8%; one-second
#: windows left ``hub-10k`` throughput at 19%, because a run can go
#: seconds without a whole fast second but rarely without a fast
#: fifth of one.
WINDOW_SHARE = 0.02


def nearest_rank(values, percent: float) -> float:
    """The nearest-rank ``percent``-th percentile: the smallest sample with
    at least ``percent``% of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must lie in (0, 100], got {percent}")
    ordered = sorted(values)
    return ordered[math.ceil(percent / 100 * len(ordered)) - 1]


def latency_summary(samples_s) -> dict:
    """p50 and p95 in milliseconds, with the sample count.

    ``p95_resolved`` is False below :data:`P95_MIN_SAMPLES`; the p95 is
    still given (it is then at or near the sample maximum).
    """
    return {
        "samples": len(samples_s),
        "p50_ms": nearest_rank(samples_s, 50) * 1e3,
        "p95_ms": nearest_rank(samples_s, 95) * 1e3,
        "p95_resolved": len(samples_s) >= P95_MIN_SAMPLES,
    }


def best_of_repeats(ops) -> dict:
    """Throughput and p50 over each op's fastest run and its median run.

    ``ops`` are ``(begin, end, work, item)`` tuples; runs of one
    ``item`` repeat the same op.  Each item counts once, with the
    latency of its fastest run (``best``) or of its median run
    (``median``): throughput is the items' work over the sum of those
    latencies, and p50 the nearest-rank median of them.  Returns
    ``{"items": count, "fewest_runs": n, "best": {...}, "median":
    {...}}``, each with ``throughput`` (work per second) and ``p50_ms``.
    """
    if not ops:
        raise ValueError("no ops")
    runs: dict = {}
    for begin, end, work, item in ops:
        runs.setdefault(item, []).append((end - begin, work))
    estimates = {}
    for name, pick in (("best", min), ("median", statistics.median_low)):
        picked = [pick(item_runs) for item_runs in runs.values()]
        estimates[name] = {
            "throughput": (sum(work for _, work in picked)
                           / sum(latency for latency, _ in picked)),
            "p50_ms": nearest_rank([latency for latency, _ in picked],
                                   50) * 1e3,
        }
    return {"items": len(runs),
            "fewest_runs": min(len(item_runs) for item_runs in runs.values()),
            **estimates}


def windows(ops) -> dict:
    """Throughput and p50 of a run's best window and of its median window.

    ``ops`` are ``(begin, end, work, ...)`` tuples.  A window is a
    stretch of consecutive ops, in the order they began, holding
    :data:`WINDOW_SHARE` of the run's ops (at least one); one starts at
    every op that has enough ops after it.  Its throughput is its work
    over the time from its first begin to its latest end, and its p50 is
    the nearest-rank median of its ops' latencies.  Returns
    ``{"windows": count, "best": {...}, "median": {...}}``, each with
    ``throughput`` (work per second) and ``p50_ms``: the highest
    throughput and lowest p50 of any window, and the medians over the
    windows.
    """
    if not ops:
        raise ValueError("no ops")
    ops = sorted(ops, key=lambda op: op[:2])
    size = max(1, round(len(ops) * WINDOW_SHARE))
    works = [0, *accumulate(op[2] for op in ops)]
    latest: deque[int] = deque()  # window ops no later op outlasts
    ordered: list[float] = []     # the window's latencies, sorted
    rates, p50s = [], []
    for last, (begin, end, *_) in enumerate(ops):
        insort(ordered, end - begin)
        while latest and ops[latest[-1]][1] <= end:
            latest.pop()
        latest.append(last)
        first = last - size + 1
        if first < 0:
            continue
        if latest[0] < first:
            latest.popleft()
        elapsed = ops[latest[0]][1] - ops[first][0]
        rates.append((works[last + 1] - works[first]) / elapsed)
        p50s.append(ordered[math.ceil(size / 2) - 1])
        gone = ops[first]
        del ordered[bisect_left(ordered, gone[1] - gone[0])]
    return {
        "windows": len(rates),
        "best": {"throughput": max(rates), "p50_ms": min(p50s) * 1e3},
        "median": {"throughput": statistics.median(rates),
                   "p50_ms": statistics.median(p50s) * 1e3},
    }


def spread(values) -> float:
    """Interquartile range over median, as ``statistics.quantiles`` gives
    the quartiles; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf
