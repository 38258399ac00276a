"""Nested wall-clock span tracing with JSON and Chrome trace export.

A :class:`SpanTracer` records a forest of :class:`Span` trees; spans
opened while another span is active become its children, so the export
mirrors the call structure (epoch → step → forward → Phrase2Ent/…).
Nesting is tracked per thread (a background thread opening spans does
not corrupt the main thread's stack), and every span records the real
``os.getpid()`` / ``threading.get_ident()`` it was opened on, so traces
merged across pool workers render one row per process/thread instead
of interleaving on a shared lane.

Two export formats:

- :meth:`SpanTracer.to_dict` — a nested JSON tree with millisecond
  durations, convenient for programmatic inspection;
- :meth:`SpanTracer.to_chrome_trace` — the Chrome ``trace_event``
  format (complete ``"ph": "X"`` events), loadable in
  ``chrome://tracing`` / Perfetto, where nesting is reconstructed from
  the timestamps on each span's real pid/tid.

Cross-process aggregation: :meth:`SpanTracer.snapshot` serializes the
span forest with *absolute* ``perf_counter`` timestamps (on Linux that
clock is ``CLOCK_MONOTONIC``, shared by every process on the machine),
and :meth:`SpanTracer.merge` grafts such a snapshot into another
tracer, re-anchoring the export epoch to the earliest one seen — a
pooled run therefore exports one coherent timeline.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


@dataclasses.dataclass
class Span:
    """One timed region. ``start``/``end`` are ``perf_counter`` seconds."""

    name: str
    start: float
    end: float | None = None
    args: dict = dataclasses.field(default_factory=dict)
    children: list["Span"] = dataclasses.field(default_factory=list)
    pid: int = dataclasses.field(default_factory=os.getpid)
    tid: int = dataclasses.field(default_factory=threading.get_ident)

    @property
    def duration(self) -> float | None:
        """Seconds, or None while the span is still open."""
        return None if self.end is None else self.end - self.start


class SpanTracer:
    """Context-manager span recorder; one instance per trace."""

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Open a span; nests under this thread's innermost active span."""
        record = Span(name=name, start=time.perf_counter(), args=dict(args))
        stack = self._stack()
        if stack:
            stack[-1].children.append(record)
        else:
            with self._lock:
                self._roots.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    @property
    def roots(self) -> list[Span]:
        return list(self._roots)

    def reset(self) -> None:
        self._roots = []
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Cross-process aggregation
    # ------------------------------------------------------------------
    def _span_payload(self, span: Span) -> dict:
        payload = {
            "name": span.name,
            "start": span.start,
            "end": span.end if span.end is not None else time.perf_counter(),
            "pid": span.pid,
            "tid": span.tid,
        }
        if span.args:
            payload["args"] = dict(span.args)
        if span.children:
            payload["children"] = [
                self._span_payload(child) for child in span.children
            ]
        return payload

    def snapshot(self) -> dict:
        """Picklable span forest with absolute perf_counter timestamps."""
        return {
            "epoch": self._epoch,
            "pid": os.getpid(),
            "spans": [self._span_payload(span) for span in self._roots],
        }

    @staticmethod
    def _rehydrate(payload: dict) -> Span:
        return Span(
            name=payload["name"],
            start=payload["start"],
            end=payload["end"],
            args=dict(payload.get("args", {})),
            children=[
                SpanTracer._rehydrate(child)
                for child in payload.get("children", [])
            ],
            pid=payload["pid"],
            tid=payload["tid"],
        )

    def merge(self, snapshot: dict) -> None:
        """Graft a :meth:`snapshot` (typically from another process) in.

        The incoming roots keep their recorded pid/tid; the export epoch
        moves back to the earliest epoch seen so merged timelines share
        one origin. ``perf_counter`` is machine-wide monotonic on Linux,
        which makes the absolute timestamps directly comparable.
        """
        spans = [self._rehydrate(payload) for payload in snapshot["spans"]]
        with self._lock:
            self._roots.extend(spans)
            self._epoch = min(self._epoch, snapshot["epoch"])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _span_dict(self, span: Span) -> dict:
        end = span.end if span.end is not None else time.perf_counter()
        node = {
            "name": span.name,
            "start_ms": (span.start - self._epoch) * 1e3,
            "duration_ms": (end - span.start) * 1e3,
            "pid": span.pid,
            "tid": span.tid,
        }
        if span.args:
            node["args"] = span.args
        if span.children:
            node["children"] = [self._span_dict(c) for c in span.children]
        return node

    def to_dict(self) -> dict:
        """Nested span forest with millisecond timings."""
        return {"spans": [self._span_dict(s) for s in self._roots]}

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON object (``traceEvents`` key)."""
        events: list[dict] = []

        def emit(span: Span) -> None:
            end = span.end if span.end is not None else time.perf_counter()
            event = {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - self._epoch) * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
            for child in span.children:
                emit(child)

        for root in self._roots:
            emit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_json(self, path) -> None:
        """Write the nested-tree format to ``path``."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def export_chrome(self, path) -> None:
        """Write the Chrome ``trace_event`` format to ``path``."""
        Path(path).write_text(json.dumps(self.to_chrome_trace()) + "\n")
