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
previous state on exit.

The *live* telemetry plane — :class:`TelemetryServer` (``/metrics`` +
``/healthz`` HTTP endpoints), :class:`ResourceSampler` (periodic /proc
gauges), and :class:`FlightRecorder` (bounded ring of recent spans with
SIGUSR2/crash dump) — is exported lazily via module ``__getattr__`` so
importing ``repro.obs`` never pulls in ``http.server`` unless the live
plane is actually used. The CLI wires those up via ``--serve-metrics``
/ ``--sample-interval`` / ``--flight-dir``.

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
    # Lazy (module __getattr__): the live telemetry plane.
    "TelemetryServer",
    "HealthRegistry",
    "render_prometheus",
    "ResourceSampler",
    "FlightRecorder",
]

# Lazy exports keep http.server/signal machinery out of the import path
# of instrumented hot loops; resolved on first attribute access.
_LAZY = {
    "TelemetryServer": ("repro.obs.exporter", "TelemetryServer"),
    "HealthRegistry": ("repro.obs.exporter", "HealthRegistry"),
    "render_prometheus": ("repro.obs.exporter", "render_prometheus"),
    "ResourceSampler": ("repro.obs.sampler", "ResourceSampler"),
    "FlightRecorder": ("repro.obs.flight", "FlightRecorder"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value

# The one-attribute-check guard. Instrumented hot loops read this
# directly (``if obs.enabled:``); everything else is behind it.
enabled: bool = False

metrics = MetricsRegistry()
tracer = SpanTracer()

_NULL_CONTEXT = nullcontext()


def _unheld_locks_in_child() -> None:
    """Give a forked child fresh instrument locks.

    ``fork()`` copies only the forking thread. A lock another owner
    thread held at that moment (the ``--serve-metrics`` server during a
    scrape, the sampler creating a per-pid gauge) would stay held in
    the child forever, and a pool worker's ``obs.reset()`` or first
    root span would wait on it. The maps the locks guard are consistent
    in the child: the forking thread held the GIL.
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
