"""repro.obs — zero-dependency observability (metrics + span tracing).

Module-level singletons keep the hot-path contract simple: instrumented
code guards every recording site with ``if obs.enabled:`` so the
disabled cost is a single module-attribute check, and the enabled path
records into :data:`metrics` (a :class:`MetricsRegistry`) and
:data:`tracer` (a :class:`SpanTracer`).

Typical use::

    from repro import obs

    obs.enable()
    ...  # run training / annotation
    obs.metrics.export_json("metrics.json")
    obs.tracer.export_chrome("trace.json")

The CLI wires this up via ``--metrics-out`` / ``--trace-out``; tests use
:func:`scope` to enable against fresh instruments and restore the
previous state on exit. Telemetry leaves a run only as these files,
written once at exit; pool workers hand what they record to the owner
inside each task reply (:mod:`repro.obs.aggregate`).

Per-mention decision provenance lives in :mod:`repro.obs.provenance`
(imported as a plain submodule — it is stdlib-light and safe on the hot
import path). Its one capture site, the annotator's decision routine,
guards with ``obs.enabled and provenance.active`` so disabled runs pay
nothing; the CLI wires it up via ``--provenance-out`` and the ``repro
explain`` subcommand queries the resulting JSONL audit trail.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    parse_metric_key,
    relabel_metric_key,
)
from repro.obs.trace import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "parse_metric_key",
    "relabel_metric_key",
    "Span",
    "SpanTracer",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "scope",
    "metrics",
    "tracer",
]

# The one-attribute-check guard. Instrumented hot loops read this
# directly (``if obs.enabled:``); everything else is behind it.
enabled: bool = False

metrics = MetricsRegistry()
tracer = SpanTracer()

_NULL_CONTEXT = nullcontext()


def _unheld_locks_in_child() -> None:
    """Give a forked child fresh instrument locks.

    ``fork()`` copies only the forking thread. A lock another thread of
    the caller held at that moment (creating a metric, opening a root
    span) would stay held in the child forever, and a pool worker's
    ``obs.reset()`` or first root span would wait on it. The maps the
    locks guard are consistent in the child: the forking thread held
    the GIL.
    """
    metrics._lock = threading.Lock()
    tracer._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_unheld_locks_in_child)


def enable() -> None:
    """Turn recording on (idempotent)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn recording off (idempotent); recorded data is kept."""
    global enabled
    enabled = False


def reset() -> None:
    """Clear all recorded metrics and spans."""
    metrics.reset()
    tracer.reset()


def span(name: str, **args):
    """A tracer span when enabled, a shared no-op context otherwise."""
    if not enabled:
        return _NULL_CONTEXT
    return tracer.span(name, **args)


@contextmanager
def scope(fresh: bool = True):
    """Enable observability for a block; restores the prior state.

    With ``fresh`` (the default) the global metrics/tracer are reset on
    entry so the block observes only its own activity. Yields
    ``(metrics, tracer)``.
    """
    global enabled
    previous = enabled
    if fresh:
        reset()
    enabled = True
    try:
        yield metrics, tracer
    finally:
        enabled = previous
