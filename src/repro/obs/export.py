"""Serializable telemetry export: Prometheus exposition and timelines.

This module is the *format* half of the fleet telemetry plane (the
*collection* half is :mod:`repro.obs.aggregate`):

- :func:`peak_rss_bytes` - the process's lifetime peak RSS in bytes
  (``VmHWM`` on Linux, ``ru_maxrss`` elsewhere).  Shared by the bench
  memory probes and the service ``metrics`` op.
- :func:`render_prometheus` - a fleet snapshot (see
  :func:`repro.obs.aggregate.build_fleet_snapshot`) as a
  Prometheus-style text exposition: per-shard liveness/RSS/restart
  gauges, per-tenant wear gauges, the fleet capacity outlook
  (``repro_fleet_capacity_*`` and per-tenant forecast gauges), and the
  merged registry's counters, gauges and histogram summaries.
- Timeline assembly - :func:`read_trace_events` /
  :func:`read_wal_events` / :func:`merge_timelines` /
  :func:`write_timeline` build one merged JSONL timeline out of
  per-process trace files and per-shard write-ahead logs, and
  :func:`follow_trace` extracts every hop a single trace id touched
  (client request -> shard round -> WAL access record), including
  across a shard crash-restart: the WAL is durable, so the trace id
  survives even when the shard process did not.

WAL files are read with a standalone tolerant parser (complete JSON
lines only, torn tails skipped) so a *live* shard's ledger can be read
without taking its flock or mutating the file the way
:class:`~repro.service.ledger.WearLedger` recovery would.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys

__all__ = [
    "peak_rss_bytes",
    "render_prometheus",
    "read_trace_events",
    "read_wal_events",
    "merge_timelines",
    "write_timeline",
    "follow_trace",
]


def peak_rss_bytes() -> int:
    """Lifetime peak resident-set size of this process, in bytes.

    On Linux a spawned child's ``ru_maxrss`` starts at its parent's
    peak, so a shard or memory probe started from a large process would
    report that process's size; ``VmHWM`` in ``/proc/self/status`` is
    the high-water mark of this process's own memory.
    """
    if sys.platform.startswith("linux"):
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    return int(rss if sys.platform == "darwin" else rss * 1024)


# -- Prometheus text exposition ---------------------------------------

def _metric_name(name: str) -> str:
    """A repro metric name as a legal Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _label_value(value) -> str:
    escaped = str(value).replace("\\", r"\\").replace("\n", r"\n")
    return escaped.replace('"', r'\"')


def _sample(name: str, value, labels: dict | None = None) -> str | None:
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    value = float(value)
    if math.isnan(value):
        return None
    label_text = ""
    if labels:
        inner = ",".join(f'{key}="{_label_value(val)}"'
                         for key, val in labels.items())
        label_text = "{" + inner + "}"
    if value == int(value) and abs(value) < 1e15:
        rendered = str(int(value))
    else:
        rendered = repr(value)
    return f"{name}{label_text} {rendered}"


_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _registry_lines(snapshot: dict, labels: dict | None = None) -> list[str]:
    """Exposition lines for one metrics-snapshot dict."""
    lines: list[str] = []
    for name, value in (snapshot.get("counters") or {}).items():
        line = _sample(_metric_name(name) + "_total", value, labels)
        if line:
            lines.append(line)
    for name, value in (snapshot.get("gauges") or {}).items():
        line = _sample(_metric_name(name), value, labels)
        if line:
            lines.append(line)
    for name, summary in (snapshot.get("histograms") or {}).items():
        base = _metric_name(name)
        count = summary.get("count", 0)
        lines.append(_sample(base + "_count", count, labels))
        if not count:
            continue
        lines.append(_sample(base + "_sum", summary.get("sum"), labels))
        for quantile, key in _QUANTILES:
            q_labels = dict(labels or {})
            q_labels["quantile"] = quantile
            line = _sample(base, summary.get(key), q_labels)
            if line:
                lines.append(line)
    return [line for line in lines if line]


def render_prometheus(fleet_snapshot: dict) -> str:
    """A fleet snapshot as Prometheus-style text exposition.

    Accepts the dict built by
    :func:`repro.obs.aggregate.build_fleet_snapshot`.  Per-shard and
    per-tenant series are labeled (``shard=...`` / ``tenant=...``); the
    fleet-merged registry is exported unlabeled, since its histograms
    already compose every shard's samples exactly.
    """
    lines: list[str] = [
        "# repro fleet telemetry (text exposition)",
        f"# kind={fleet_snapshot.get('kind', 'fleet-snapshot')} "
        f"schema_version={fleet_snapshot.get('schema_version', 1)}",
    ]
    totals = fleet_snapshot.get("totals") or {}
    for key, value in totals.items():
        line = _sample(_metric_name(f"fleet.{key}"), value)
        if line:
            lines.append(line)
    for shard in fleet_snapshot.get("shards") or ():
        labels = {"shard": shard.get("index")}
        lines.append(_sample(_metric_name("shard.up"),
                             bool(shard.get("alive")), labels))
        for key in ("restarts", "pid", "peak_rss_bytes", "uptime_s",
                    "recovered_records"):
            line = _sample(_metric_name(f"shard.{key}"),
                           shard.get(key), labels)
            if line:
                lines.append(line)
        service = shard.get("service") or {}
        for key in ("requests", "rounds", "queue_depth"):
            line = _sample(_metric_name(f"shard.{key}"),
                           service.get(key), labels)
            if line:
                lines.append(line)
    for tenant, gauges in (fleet_snapshot.get("tenants") or {}).items():
        labels = {"tenant": tenant}
        if gauges.get("shard") is not None:
            labels["shard"] = gauges["shard"]
        for key in ("remaining_capacity", "wear_cycles",
                    "lifetime_used_fraction", "attempts", "served",
                    "exhausted", "current_copy", "dead_banks"):
            line = _sample(_metric_name(f"tenant.{key}"),
                           gauges.get(key), labels)
            if line:
                lines.append(line)
        for copy_index, budget in enumerate(
                gauges.get("remaining_bank_budgets") or ()):
            copy_labels = dict(labels)
            copy_labels["copy"] = copy_index
            lines.append(_sample(
                _metric_name("tenant.remaining_bank_budget"),
                budget, copy_labels))
    capacity = fleet_snapshot.get("capacity") or {}
    estimate = capacity.get("estimate")
    if estimate:
        for key in ("alpha", "beta", "observations", "failures"):
            line = _sample(_metric_name(f"fleet.capacity.{key}"),
                           estimate.get(key))
            if line:
                lines.append(line)
        lines.append(_sample(_metric_name("fleet.capacity.at_risk"),
                             len(capacity.get("at_risk") or ())))
        lines.append(_sample(
            _metric_name("fleet.capacity.remaining_mean_total"),
            capacity.get("remaining_mean_total")))
    for tenant, forecast in (capacity.get("forecasts") or {}).items():
        labels = {"tenant": tenant}
        for key in ("remaining_mean", "remaining_median", "p_exhaust"):
            line = _sample(_metric_name(f"tenant.forecast.{key}"),
                           forecast.get(key), labels)
            if line:
                lines.append(line)
        lo, hi = forecast.get("interval") or (None, None)
        for key, value in (("interval_lo", lo), ("interval_hi", hi)):
            line = _sample(_metric_name(f"tenant.forecast.{key}"),
                           value, labels)
            if line:
                lines.append(line)
    merged = fleet_snapshot.get("merged")
    if merged:
        lines.extend(_registry_lines(merged))
    return "\n".join(line for line in lines if line) + "\n"


# -- merged timelines --------------------------------------------------

def _read_jsonl(path: str) -> list[dict]:
    """Complete JSON lines of ``path``; torn tails and noise skipped."""
    events: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a crashed writer
                if isinstance(payload, dict):
                    events.append(payload)
    except OSError:
        return []
    return events


def read_trace_events(path: str, source: str | None = None,
                      shard: int | None = None) -> list[dict]:
    """Events of one JSONL trace file, tagged with their origin."""
    events = _read_jsonl(path)
    for event in events:
        if source is not None:
            event.setdefault("source", source)
        if shard is not None:
            event.setdefault("shard", shard)
    return events


def read_wal_events(ledger_dir: str, shard: int | None = None) -> list[dict]:
    """One timeline event per WAL record of a shard's ledger.

    Reads archived segments plus the active WAL in seq order without
    locking, so it is safe against a live (or freshly killed) shard.
    The returned events carry ``kind="wal"`` and surface the record's
    ``seq`` / ``op`` / ``tenant`` / ``rid`` / ``trace`` fields; ``seq``
    is the shard-local total order, which is what makes a trace id
    followable across a crash-restart even when the shard's in-memory
    trace events died with the process.
    """
    paths: list[str] = []
    archive_dir = os.path.join(ledger_dir, "archive")
    if os.path.isdir(archive_dir):
        paths.extend(os.path.join(archive_dir, name)
                     for name in sorted(os.listdir(archive_dir))
                     if name.startswith("segment-")
                     and name.endswith(".jsonl"))
    paths.append(os.path.join(ledger_dir, "wal.jsonl"))
    events: list[dict] = []
    for path in paths:
        for record in _read_jsonl(path):
            if "seq" not in record:
                continue
            event = {"kind": "wal", "seq": record["seq"],
                     "op": record.get("op")}
            for key in ("tenant", "rid", "trace"):
                if record.get(key) is not None:
                    event[key] = record[key]
            if shard is not None:
                event["shard"] = shard
            events.append(event)
    events.sort(key=lambda event: event["seq"])
    return events


def _round_seq_times(events: list[dict]) -> list[tuple[int, int, float]]:
    """(first_seq, last_seq, wall_time) spans from shard round events."""
    spans = []
    for event in events:
        attrs = event.get("attrs") or {}
        if event.get("name") == "svc.round" and "first_seq" in attrs:
            spans.append((attrs["first_seq"], attrs["last_seq"],
                          event.get("wall_time", 0.0)))
    return spans


def merge_timelines(trace_events: list[dict],
                    wal_events: list[dict] = ()) -> list[dict]:
    """One chronologically merged timeline from traces and WAL records.

    Trace events order by their ``wall_time``.  WAL records carry no
    wall clock by design (timestamps in the WAL would break the
    batched-vs-sequential byte-identity guarantees), so each is placed
    at the wall time of the ``svc.round`` span event covering its
    ``seq`` when the shard traced one, and at the epoch otherwise -
    still in shard-local ``seq`` order either way.
    """
    merged: list[dict] = list(trace_events)
    spans_by_shard: dict = {}
    for event in trace_events:
        shard = event.get("shard")
        spans_by_shard.setdefault(shard, []).extend(
            _round_seq_times([event]))
    for event in wal_events:
        spans = spans_by_shard.get(event.get("shard"), ())
        for first_seq, last_seq, wall_time in spans:
            if first_seq <= event["seq"] <= last_seq:
                event = dict(event)
                event["wall_time"] = wall_time
                break
        merged.append(event)
    merged.sort(key=lambda event: (
        event.get("wall_time") or 0.0,
        event.get("shard") if event.get("shard") is not None else -1,
        event.get("seq", 0)))
    return merged


def write_timeline(events: list[dict], path: str) -> int:
    """Write a merged timeline as JSONL; returns the event count."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return len(events)


def follow_trace(events: list[dict], trace_id: str) -> list[dict]:
    """Every timeline event a trace id touched, in timeline order.

    Matches client/request events (``attrs.trace``), shard round events
    (``attrs.traces`` membership), and WAL access records (``trace``
    field) - the full client -> shard -> batch-round -> kernel path.
    """
    hops: list[dict] = []
    for event in events:
        attrs = event.get("attrs") or {}
        if (event.get("trace") == trace_id
                or attrs.get("trace") == trace_id
                or trace_id in (attrs.get("traces") or ())):
            hops.append(event)
    return hops
