"""In-memory spans around named public callables, and their self times.

The benchmark instruments nothing inside ``src/``: a :class:`Tracer`
replaces each callable in :data:`LAYERS` with a timing wrapper at the
attribute its caller looks it up through (a class attribute, or a module
global for functions imported by name), and puts every original back on
:meth:`Tracer.restore`.

A span is ``(sid, name, start, end, parent, info)``.  ``parent`` is the
enclosing span of the same thread or asyncio task, taken from a context
variable, and ``info`` carries what the call says about requests:
``trace`` for a ``RequestBatcher.submit`` and ``links`` plus ``size`` for
a ``WearHub.serve_round``.  A span's self time is its duration minus the
union of its children's intervals.  A ``serve_round`` span is a child of
its enclosing span *and* of every ``submit`` span whose trace id it
served, so a ``submit``'s self time is the time its request waited in the
batcher queue.
"""

from __future__ import annotations

import bisect
import contextvars
import importlib
import inspect
import itertools
import json
import time

__all__ = ["LAYERS", "Tracer", "covered", "self_times", "layer_totals",
           "read_jsonl"]


def _submit_info(args, kwargs):
    trace = kwargs.get("trace", args[3] if len(args) > 3 else None)
    return None if trace is None else {"trace": trace}


def _round_info(args, kwargs):
    items = kwargs.get("requests", args[1] if len(args) > 1 else ())
    links = [item[2] for item in items
             if isinstance(item, tuple) and len(item) > 2]
    return {"links": links, "size": len(items)}


#: ``(layer name, "module[:Class]", attribute, info extractor)``.  Names
#: follow ``src/repro``'s package layout; the ``codes.shamir`` and
#: ``codes.threshold`` functions are wrapped where
#: :mod:`repro.connection.keystore` imported them.  RS decoding is
#: wrapped at ``ReedSolomonCode.decode_many``: the keystore calls it
#: directly for the chunks a corrupted readout pushes past the unique
#: decoding radius, and ``rs_recover_chunks`` calls it too.
LAYERS = (
    ("service.protocol.encode_frame", "repro.service.protocol",
     "encode_frame", None),
    ("service.protocol.decode_payload", "repro.service.protocol",
     "decode_payload", None),
    ("service.batcher.submit", "repro.service.batcher:RequestBatcher",
     "submit", _submit_info),
    ("service.hub.serve_round", "repro.service.hub:WearHub",
     "serve_round", _round_info),
    ("service.hub.provision", "repro.service.hub:WearHub", "provision", None),
    ("service.hub.recover", "repro.service.hub:WearHub", "recover", None),
    ("service.ledger.append_batch", "repro.service.ledger:WearLedger",
     "append_batch", None),
    # Only the ledger fsyncs in the benchmark's workloads.
    ("service.ledger.fsync", "os", "fsync", None),
    ("service.ledger.replay", "repro.service.ledger:WearLedger", "replay",
     None),
    ("engine.state.step_access", "repro.engine.state:WearState",
     "step_access", None),
    ("engine.state.remaining_capacity", "repro.engine.state:WearState",
     "remaining_capacity", None),
    ("engine.state.run_to_exhaustion", "repro.engine.state:WearState",
     "run_to_exhaustion", None),
    ("connection.keystore.recover", "repro.connection.keystore:BankKeyStore",
     "recover", None),
    ("connection.keystore.init", "repro.connection.keystore:BankKeyStore",
     "__init__", None),
    ("connection.resilient.read_key",
     "repro.connection.resilient:ResilientAccessController", "read_key",
     None),
    ("core.hardware.access", "repro.core.hardware:SimulatedBank", "access",
     None),
    ("faults.injectors.on_shares_readout",
     "repro.faults.injectors:FaultModel", "on_shares_readout", None),
    ("codes.shamir.split_secret", "repro.connection.keystore",
     "split_secret", None),
    ("codes.shamir.recover_from_pairs", "repro.connection.keystore",
     "recover_from_pairs", None),
    ("codes.threshold.rs_split_secret", "repro.connection.keystore",
     "rs_split_secret", None),
    ("codes.reed_solomon.decode_many",
     "repro.codes.reed_solomon:ReedSolomonCode", "decode_many", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans from wrapped callables while installed."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.spans: list[tuple] = []
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every layer callable (a no-op when already installed)."""
        if self._patched:
            return
        for name, target, attr, info in self.layers:
            owner = _resolve(target)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, info))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, info):
        current, ids, spans = self._current, self._ids, self.spans
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            async def async_wrapper(*args, **kwargs):
                parent = current.get()
                sid = next(ids)
                token = current.set(sid)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((sid, name, start, end, parent,
                                  info(args, kwargs) if info else None))
            return async_wrapper

        def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, name, start, end, parent,
                              info(args, kwargs) if info else None))
        return wrapper

    def write_jsonl(self, path: str) -> None:
        """Write the collected spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, info in self.spans:
                handle.write(json.dumps(
                    {"sid": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "info": info},
                    separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> list[tuple]:
    """Spans written by :meth:`Tracer.write_jsonl`, as span tuples."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append((row["sid"], row["name"], row["start"], row["end"],
                          row["parent"], row["info"]))
    return spans


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its child intervals."""
    by_trace: dict[str, list[int]] = {}
    for sid, _, _, _, _, info in spans:
        if info and info.get("trace") is not None:
            by_trace.setdefault(info["trace"], []).append(sid)
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, info in spans:
        parents = [] if parent is None else [parent]
        if info:
            for trace in info.get("links", ()):
                parents.extend(by_trace.get(trace, ()))
        for p in parents:
            children.setdefault(p, []).append((start, end))
    return {sid: (end - start) - covered(start, end, children.get(sid, ()))
            for sid, _, start, end, _, _ in spans}


def _merged(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def layer_totals(spans, selfs: dict[int, float], intervals,
                 layers=LAYERS) -> dict[str, dict]:
    """Per-layer ``{"self_s", "calls", "sizes"}`` of the spans that start
    inside one of ``intervals`` (``(begin, end)`` pairs on the
    ``perf_counter`` clock, which is CLOCK_MONOTONIC on Linux and so
    shared with the server child)."""
    merged = _merged(intervals)
    begins = [start for start, _ in merged]
    totals = {name: {"self_s": 0.0, "calls": 0, "sizes": []}
              for name, *_ in layers}
    for sid, name, start, _, _, info in spans:
        i = bisect.bisect_right(begins, start) - 1
        if i >= 0 and start <= merged[i][1]:
            entry = totals[name]
            entry["self_s"] += selfs[sid]
            entry["calls"] += 1
            if info and "size" in info:
                entry["sizes"].append(info["size"])
    return totals
