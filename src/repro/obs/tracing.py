"""Span tracing: nested timed scopes exported as JSONL events.

A :class:`Span` is a context manager timing one scope with
:func:`time.perf_counter`; spans nest (the tracer keeps an explicit
stack, matching the single-threaded simulations), and every finished
span is emitted to the recorder's sinks as one JSON object::

    {"v": 1, "kind": "span", "name": "cli.simulate", "span_id": 1,
     "parent_id": null, "wall_time": 1754..., "duration_s": 0.182}

plus an ``"attrs"`` object when the span was given attributes.

While observability is disabled, :meth:`repro.obs.recorder.Observability.span`
returns the shared :data:`NULL_SPAN`, so call sites never branch.
"""

from __future__ import annotations

import time

__all__ = ["Span", "NullSpan", "NULL_SPAN", "SpanTracer"]

from repro.obs.recorder import EVENT_SCHEMA_VERSION


class Span:
    """One timed scope; use as a context manager."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "duration_s",
                 "_tracer", "_start", "_wall")

    def __init__(self, tracer: "SpanTracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.duration_s: float | None = None
        self._tracer = tracer
        self._start = 0.0
        self._wall = 0.0

    def set_attr(self, key: str, value) -> None:
        """Attach one attribute to the span before it closes."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._wall = time.time()
        self._start = time.perf_counter()
        self._tracer._opened(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._closed(self)

    def to_event(self) -> dict:
        payload = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_time": self._wall,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class NullSpan:
    """Shared no-op span handed out while observability is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = NullSpan()


class SpanTracer:
    """Creates spans, tracks nesting, and emits finished spans to sinks.

    Finished spans also feed the metrics registry: a ``<name>`` histogram
    of durations under ``span.<name>``, so ``--obs-summary`` shows span
    timing percentiles without reading the trace file.
    """

    def __init__(self, obs) -> None:
        self._obs = obs
        self._stack: list[Span] = []
        self._next_id = 1
        self.finished = 0

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, name, self._next_id, parent, attrs)
        self._next_id += 1
        return span

    def _opened(self, span: Span) -> None:
        self._stack.append(span)

    def _closed(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # out-of-order exit: drop it from wherever it sits
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        self.finished += 1
        self._obs.metrics.observe(f"span.{span.name}", span.duration_s)
        self._obs.emit(span.to_event())
