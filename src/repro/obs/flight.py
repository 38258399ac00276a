"""Bounded flight recorder: recent spans + events, dumpable post mortem.

A long-running annotator that hangs or crashes leaves no trace with
export-at-end-of-run telemetry — the export never happens. The
:class:`FlightRecorder` keeps the *last N* closed spans (subscribed to
:meth:`~repro.obs.trace.SpanTracer.add_listener`) and structured events
in fixed-size ring buffers, and can dump them — together with a metrics
summary — to a timestamped JSON bundle:

- on demand (:meth:`FlightRecorder.dump`),
- on ``SIGUSR2`` (``kill -USR2 <pid>`` against a live process), or
- on an uncaught exception (a chained ``sys.excepthook``).

Dump bundle schema (one JSON object)::

    {
      "reason":        "sigusr2" | "crash" | "manual" | ...,
      "pid":           <int>,
      "created_unix":  <float epoch seconds>,
      "capacity":      <ring size>,
      "spans":  [{"name", "ended_unix", "duration_ms", "pid", "tid",
                  "args"?}, ...],     # oldest -> newest
      "events": [{"kind", "unix_time", ...caller fields}, ...],
      "metrics": {"counters": ..., "gauges": ..., "histograms": ...}
    }

Recording cost is one deque append per closed span; nothing here runs
when ``obs`` is disabled (no spans close) and nothing is installed
unless the caller asks (the CLI wires it up with ``--serve-metrics`` /
``--metrics-out`` style telemetry runs, dump directory ``--flight-dir``).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import deque
from pathlib import Path

import repro.obs as obs

_DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Ring buffer of recently closed spans + structured events."""

    def __init__(
        self,
        capacity: int = _DEFAULT_CAPACITY,
        dump_dir: str | Path = ".",
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = int(capacity)
        self.dump_dir = Path(dump_dir)
        self._spans: deque = deque(maxlen=self.capacity)
        self._events: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._tracer = None
        self._signum: int | None = None
        self._prev_signal = None
        self._prev_excepthook = None
        self._dump_seq = 0

    # -- recording ------------------------------------------------------
    def attach(self, tracer=None) -> "FlightRecorder":
        """Subscribe to a tracer's span-close stream (default global)."""
        tracer = tracer if tracer is not None else obs.tracer
        self.detach()
        tracer.add_listener(self._on_span_close)
        self._tracer = tracer
        return self

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.remove_listener(self._on_span_close)
            self._tracer = None

    def _on_span_close(self, span) -> None:
        entry = {
            "name": span.name,
            "ended_unix": time.time(),
            "duration_ms": (
                0.0 if span.end is None else (span.end - span.start) * 1e3
            ),
            "pid": span.pid,
            "tid": span.tid,
        }
        if span.args:
            entry["args"] = dict(span.args)
        with self._lock:
            self._spans.append(entry)

    def record_event(self, kind: str, **fields) -> None:
        """Append a structured event (bounded; oldest entries fall off)."""
        entry = {"kind": kind, "unix_time": time.time(), **fields}
        with self._lock:
            self._events.append(entry)

    def snapshot(self) -> dict:
        """JSON-ready view of both rings, oldest first."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "spans": list(self._spans),
                "events": list(self._events),
            }

    # -- dumping --------------------------------------------------------
    def dump(self, reason: str = "manual") -> Path:
        """Write the bundle to ``dump_dir``; returns the file path."""
        bundle = self.snapshot()
        bundle["reason"] = reason
        bundle["pid"] = os.getpid()
        bundle["created_unix"] = time.time()
        bundle["metrics"] = obs.metrics.to_dict()
        from repro.obs import provenance

        if provenance.active:
            # The run's decision records ride in the crash bundle: a
            # post-mortem can see not just *that* the run wedged but
            # which mentions it was deciding and why.
            bundle["provenance"] = provenance.snapshot_records()
        self._dump_seq += 1
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = (
            self.dump_dir
            / f"flight-{os.getpid()}-{stamp}-{self._dump_seq:03d}-{reason}.json"
        )
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(bundle, indent=2) + "\n")
        return path

    def install_signal_handler(self, signum: int = signal.SIGUSR2) -> bool:
        """Dump on ``signum`` (default ``SIGUSR2``).

        Returns False when the handler could not be installed (signals
        are main-thread-only in Python); callers on worker threads keep
        the rest of the recorder and simply lose the signal trigger.
        """

        def _handler(signo, frame):
            path = self.dump(reason="sigusr2")
            print(f"flight recorder dumped to {path}", file=sys.stderr)

        try:
            previous = signal.signal(signum, _handler)
        except ValueError:
            return False
        self._signum = signum
        self._prev_signal = previous
        return True

    def uninstall_signal_handler(self) -> None:
        if self._signum is None:
            return
        try:
            signal.signal(
                self._signum,
                self._prev_signal if self._prev_signal is not None
                else signal.SIG_DFL,
            )
        except ValueError:  # pragma: no cover - not the main thread
            pass
        self._signum = None
        self._prev_signal = None

    def install_crash_handler(self) -> None:
        """Dump on an uncaught exception, then chain the previous hook."""
        if self._prev_excepthook is not None:
            return
        previous = sys.excepthook

        def _hook(exc_type, exc, tb):
            try:
                self.record_event("crash", error=repr(exc))
                self.dump(reason="crash")
            except Exception:  # pragma: no cover - dumping must not mask
                pass           # the original crash
            previous(exc_type, exc, tb)

        self._prev_excepthook = previous
        sys.excepthook = _hook

    def uninstall_crash_handler(self) -> None:
        if self._prev_excepthook is None:
            return
        sys.excepthook = self._prev_excepthook
        self._prev_excepthook = None
