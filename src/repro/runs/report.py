"""Cross-run reporting: render comparisons straight from the run DB.

``repro report`` answers the operational questions the registry exists
for, without touching any artifact file:

- ``runs``      - what ran, when, with what outcome (and what it wrote)
- ``bench``     - per-workload throughput deltas between two recorded
  bench runs (each bench run stores a compact per-workload summary in
  its row, so the comparison is rendered from the database alone);
  ``--trend`` charts each workload's throughput as a sparkline across
  the latest same-scale successful runs instead
- ``pipeline``  - one pipeline row plus its linked step runs (fleet
  steps expand one level further into their per-shard child rows)
- ``campaigns`` - fault-campaign and chaos outcomes across runs

Every renderer has a JSON-safe payload twin, so ``--json`` emits the
machine form of exactly what the table shows.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError
from repro.runs.store import RunStore
from repro.viz.ascii import table

__all__ = [
    "bench_run_summary",
    "bench_trend",
    "campaigns_payload",
    "compare_bench_runs",
    "pipeline_payload",
    "render_bench_delta",
    "render_bench_trend",
    "render_campaigns",
    "render_pipeline",
    "render_runs",
    "runs_payload",
]


def bench_run_summary(report: dict) -> dict:
    """The compact per-workload summary a bench run stores in its row.

    Everything ``repro report bench`` needs to diff two runs later -
    scale, date, and each workload's throughput - lives in the run
    database itself; the full ``BENCH_*.json`` stays an artifact.
    """
    return {
        "kind": "bench",
        "scale": report["scale"],
        "date": report["date"],
        "workloads": {
            workload["name"]: {
                "throughput_per_s": workload["throughput_per_s"],
                "unit": workload["unit"],
            }
            for workload in report["workloads"]
        },
    }


# ----------------------------------------------------------------------
# Formatting helpers
def _when(timestamp: float | None) -> str:
    if not timestamp:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(timestamp))


def _duration(row: dict) -> str:
    if not row.get("finished_at") or not row.get("started_at"):
        return "-"
    elapsed = row["finished_at"] - row["started_at"]
    if elapsed >= 60:
        return f"{elapsed / 60:.1f}m"
    return f"{elapsed:.2f}s"


def _short(run_id: str | None) -> str:
    return run_id[:12] if run_id else "-"


# ----------------------------------------------------------------------
# runs listing
def runs_payload(store: RunStore, *, limit: int = 20,
                 subcommand: str | None = None,
                 outcome: str | None = None) -> list[dict]:
    """Recent runs (dead ``running`` rows already swept) with artifacts."""
    store.resolve_interrupted()
    rows = store.list_runs(subcommand=subcommand, outcome=outcome,
                           limit=limit)
    for row in rows:
        row["artifacts"] = store.artifacts(row["id"])
    return rows


def render_runs(rows: list[dict]) -> str:
    body = []
    for row in rows:
        dirty = "+dirty" if row.get("git_dirty") else ""
        rev = (row["git_rev"][:8] + dirty) if row.get("git_rev") else "-"
        body.append((
            _short(row["id"]),
            row["subcommand"],
            row["outcome"],
            _when(row["started_at"]),
            _duration(row),
            str(row.get("seed") if row.get("seed") is not None else "-"),
            rev,
            str(len(row.get("artifacts", []))),
        ))
    return table(("run", "subcommand", "outcome", "started", "wall",
                  "seed", "rev", "artifacts"), body,
                 title=f"recorded runs (most recent {len(rows)})")


# ----------------------------------------------------------------------
# bench comparison
def _resolve_bench_run(store: RunStore, ref: str | None, *,
                       exclude: str | None = None,
                       scale: str | None = None) -> dict:
    if ref is not None:
        run = store.find_run(ref)
        if run["subcommand"] != "bench":
            raise ConfigurationError(
                f"run {ref!r} is a {run['subcommand']!r} run, not a "
                f"bench run")
        if not (run.get("summary") or {}).get("workloads"):
            raise ConfigurationError(
                f"bench run {ref!r} recorded no workload summary")
        return run
    for run in store.list_runs(subcommand="bench", outcome="ok",
                               limit=200):
        summary = run.get("summary") or {}
        if not summary.get("workloads"):
            continue
        if exclude is not None and run["id"] == exclude:
            continue
        if scale is not None and summary.get("scale") != scale:
            continue
        return run
    wanted = f" at scale {scale!r}" if scale else ""
    raise ConfigurationError(
        f"no recorded successful bench run{wanted} in {store.path!r}; "
        f"run `repro bench` (with recording enabled) first")


def compare_bench_runs(store: RunStore, *, baseline: str | None = None,
                       candidate: str | None = None) -> dict:
    """Per-workload throughput delta between two recorded bench runs.

    ``candidate`` defaults to the most recent successful bench run,
    ``baseline`` to the most recent earlier one of the same scale.
    Both accept run-id prefixes.  Rendering needs only the run rows -
    no artifact file is opened.
    """
    store.resolve_interrupted()
    cand = _resolve_bench_run(store, candidate)
    base = _resolve_bench_run(
        store, baseline, exclude=cand["id"],
        scale=(cand["summary"] or {}).get("scale"))
    if base["id"] == cand["id"]:
        raise ConfigurationError(
            "baseline and candidate are the same bench run; record a "
            "second run to compare")
    base_workloads = base["summary"]["workloads"]
    cand_workloads = cand["summary"]["workloads"]
    rows = []
    for name in base_workloads:
        if name not in cand_workloads:
            continue
        base_tp = base_workloads[name]["throughput_per_s"]
        cand_tp = cand_workloads[name]["throughput_per_s"]
        delta = ((cand_tp - base_tp) / base_tp * 100.0
                 if base_tp and cand_tp else None)
        rows.append({
            "name": name,
            "unit": base_workloads[name].get("unit", ""),
            "baseline_throughput_per_s": base_tp,
            "candidate_throughput_per_s": cand_tp,
            "delta_pct": delta,
        })

    def identity(run: dict) -> dict:
        summary = run.get("summary") or {}
        return {"id": run["id"], "started": _when(run["started_at"]),
                "scale": summary.get("scale"),
                "date": summary.get("date"),
                "host": run.get("host"), "git_rev": run.get("git_rev"),
                "git_dirty": run.get("git_dirty")}

    return {
        "kind": "bench-delta",
        "baseline": identity(base),
        "candidate": identity(cand),
        "rows": rows,
        "missing_in_candidate": sorted(
            set(base_workloads) - set(cand_workloads)),
        "new_in_candidate": sorted(
            set(cand_workloads) - set(base_workloads)),
    }


def render_bench_delta(comparison: dict) -> str:
    """Render a ``compare_bench_runs`` payload as an ascii table."""
    body = []
    for row in comparison["rows"]:
        base_tp = row["baseline_throughput_per_s"]
        cand_tp = row["candidate_throughput_per_s"]
        body.append((
            row["name"],
            f"{base_tp:,.0f}" if base_tp else "-",
            f"{cand_tp:,.0f}" if cand_tp else "-",
            f"{row['delta_pct']:+.1f}%"
            if row["delta_pct"] is not None else "-",
        ))
    base, cand = comparison["baseline"], comparison["candidate"]
    text = table(
        ("workload", "base /s", "cand /s", "delta"), body,
        title=f"bench delta: {_short(base['id'])} ({base['started']}) "
              f"-> {_short(cand['id'])} ({cand['started']}) "
              f"scale={cand['scale']}")
    notes = []
    if comparison["missing_in_candidate"]:
        notes.append("missing in candidate: "
                     + ", ".join(comparison["missing_in_candidate"]))
    if comparison["new_in_candidate"]:
        notes.append("new in candidate: "
                     + ", ".join(comparison["new_in_candidate"]))
    return "\n".join([text, *notes])


# ----------------------------------------------------------------------
# bench trend
def bench_trend(store: RunStore, *, scale: str | None = None,
                limit: int = 8) -> dict:
    """Throughput series over the latest same-scale ok bench runs.

    ``scale`` defaults to the most recent successful bench run's scale
    (mixing scales in one trend would chart workload sizing, not code
    speed).  Series are oldest-first, one slot per run; a workload
    absent from some run gets ``None`` in that slot.
    """
    store.resolve_interrupted()
    matching: list[dict] = []
    for run in store.list_runs(subcommand="bench", outcome="ok",
                               limit=500):
        summary = run.get("summary") or {}
        if not summary.get("workloads"):
            continue
        if scale is None:
            scale = summary.get("scale")
        if summary.get("scale") != scale:
            continue
        matching.append(run)
        if len(matching) >= limit:
            break
    if not matching:
        wanted = f" at scale {scale!r}" if scale else ""
        raise ConfigurationError(
            f"no recorded successful bench run{wanted} in "
            f"{store.path!r}; run `repro bench` (with recording "
            f"enabled) first")
    matching.reverse()
    names = sorted({name for run in matching
                    for name in run["summary"]["workloads"]})
    workloads = {}
    for name in names:
        series: list[float | None] = []
        unit = ""
        for run in matching:
            workload = run["summary"]["workloads"].get(name)
            series.append(None if workload is None
                          else workload["throughput_per_s"])
            if workload is not None:
                unit = workload.get("unit", unit)
        workloads[name] = {"unit": unit, "throughput_per_s": series}
    return {
        "kind": "bench-trend",
        "scale": scale,
        "runs": [{"id": run["id"], "started": _when(run["started_at"]),
                  "date": (run["summary"] or {}).get("date"),
                  "git_rev": run.get("git_rev")} for run in matching],
        "workloads": workloads,
    }


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(series: list) -> str:
    """Min-max scaled sparkline; ``·`` marks a missing/zero slot."""
    present = [value for value in series if value]
    if not present:
        return "-"
    lo, hi = min(present), max(present)
    chars = []
    for value in series:
        if not value:
            chars.append("·")
        elif hi == lo:
            chars.append(_SPARK_CHARS[len(_SPARK_CHARS) // 2])
        else:
            index = int((value - lo) / (hi - lo)
                        * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[index])
    return "".join(chars)


def render_bench_trend(payload: dict) -> str:
    """Render a ``bench_trend`` payload as a sparkline table."""
    body = []
    for name, workload in payload["workloads"].items():
        series = workload["throughput_per_s"]
        present = [value for value in series if value]
        last = present[-1] if present else None
        delta = None
        if len(present) > 1 and present[0]:
            delta = (present[-1] - present[0]) / present[0] * 100.0
        body.append((
            name,
            _sparkline(series),
            f"{last:,.0f} {workload['unit']}/s" if last else "-",
            f"{delta:+.1f}%" if delta is not None else "-",
        ))
    runs = payload["runs"]
    span = (f"{runs[0]['started']} -> {runs[-1]['started']}"
            if len(runs) > 1 else runs[0]["started"])
    return table(("workload", "trend", "latest", "vs first"), body,
                 title=f"bench trend: {len(runs)} run(s) at scale "
                       f"{payload['scale']} ({span})")


# ----------------------------------------------------------------------
# pipeline summary
def pipeline_payload(store: RunStore,
                     pipeline: str | None = None) -> dict:
    """One pipeline run plus its linked step runs (latest by default)."""
    store.resolve_interrupted()
    if pipeline is not None:
        row = store.find_run(pipeline)
        if row["subcommand"] != "pipeline":
            raise ConfigurationError(
                f"run {pipeline!r} is a {row['subcommand']!r} run, "
                f"not a pipeline")
    else:
        row = store.latest_run("pipeline", outcome=None)
        if row is None:
            raise ConfigurationError(
                f"no recorded pipeline run in {store.path!r}")
    steps = store.children(row["id"])
    for step in steps:
        step["artifacts"] = store.artifacts(step["id"])
        # One more level down: fleet steps record per-shard summaries
        # as their own child rows, and the report shows the breakdown.
        step["children"] = store.children(step["id"])
    return {"pipeline": row, "steps": steps}


def _shard_detail(child: dict) -> str:
    summary = child.get("summary") or {}
    parts = [f"{summary.get('requests', '-')} req"]
    if summary.get("share") is not None:
        parts.append(f"{summary['share']:.0%}")
    if summary.get("restarts"):
        parts.append(f"{summary['restarts']} restart(s)")
    return " ".join(parts)


def render_pipeline(payload: dict) -> str:
    row = payload["pipeline"]
    body = []
    for step in payload["steps"]:
        body.append((
            step["params"].get("step", step["subcommand"]),
            step["subcommand"],
            step["outcome"],
            _when(step["started_at"]),
            _duration(step),
            str(len(step.get("artifacts", []))),
            _short(step["id"]),
        ))
        for child in step.get("children", []):
            # A fleet step's children are its shards; an experiments
            # step's are its figures.
            params = child["params"]
            if child["subcommand"] == "fleet-shard":
                label = f"shard {params['shard']}"
                detail = _shard_detail(child)
            else:
                label = params.get("id", child["subcommand"])
                detail = child["subcommand"]
            body.append((
                f"  - {label}",
                detail,
                child["outcome"],
                _when(child["started_at"]),
                _duration(child),
                str(len(child.get("artifacts", []) or [])),
                _short(child["id"]),
            ))
    name = row["params"].get("pipeline", "-")
    text = table(("step", "kind", "outcome", "started", "wall",
                  "artifacts", "run"), body,
                 title=f"pipeline {name!r} [{_short(row['id'])}] "
                       f"outcome={row['outcome']} "
                       f"started {_when(row['started_at'])}")
    if row.get("error"):
        return text + f"\nerror: {row['error']}"
    return text


# ----------------------------------------------------------------------
# campaign outcomes
def campaigns_payload(store: RunStore, *, limit: int = 20) -> list[dict]:
    """Fault-campaign and chaos runs, most recent first."""
    store.resolve_interrupted()
    rows = (store.list_runs(subcommand="faults", limit=limit)
            + store.list_runs(subcommand="chaos", limit=limit))
    rows.sort(key=lambda row: row["started_at"], reverse=True)
    return rows[:limit]


def render_campaigns(rows: list[dict]) -> str:
    body = []
    for row in rows:
        summary = row.get("summary") or {}
        if row["subcommand"] == "faults":
            detail = (f"viol {summary['violation_rate']:.2%} "
                      f"avail {summary['availability']:.3f}"
                      if "violation_rate" in summary else "-")
            size = str(summary.get("trials", "-"))
        else:
            detail = (f"violations {summary.get('violations')}"
                      if summary else "-")
            size = str(len(summary.get("scenarios", []))) \
                if summary else "-"
        body.append((
            _short(row["id"]),
            row["subcommand"],
            row["outcome"],
            _when(row["started_at"]),
            size,
            detail,
        ))
    return table(("run", "kind", "outcome", "started", "size",
                  "result"), body,
                 title="campaign outcomes (faults + chaos)")
