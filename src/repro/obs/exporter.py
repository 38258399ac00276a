"""Live endpoints: /metrics, /metrics.json, /healthz, /trace, /provenance.

A long-running annotator is only operable if its telemetry is visible
*while it runs*; the export-at-exit files in ``repro.obs`` tell you
nothing about a hung worker. :class:`TelemetryServer` is a stdlib-only
``http.server`` on a daemon thread serving four read-only endpoints:

``/metrics``
    Prometheus text exposition (version 0.0.4). Counters and gauges map
    directly; reservoir histograms are rendered as Prometheus
    *summaries*: ``<name>{quantile="0.5"}`` / ``0.9`` / ``0.99`` series
    plus ``<name>_count`` and ``<name>_sum``. Metric names are
    sanitised to ``[a-zA-Z0-9_:]`` (dots become underscores), so
    ``parallel.pool.chunk_seconds`` merged under ``worker=0`` serves as
    ``parallel_pool_chunk_seconds{worker="0"}``.

``/metrics.json``
    The :meth:`MetricsRegistry.to_dict` summary of the same view.

``/healthz``
    Liveness + per-component readiness. Components register callables
    on the module-level :data:`health` registry (the pool registers
    worker aliveness, ``_configure_store`` the attached store);
    the endpoint returns 200 with ``{"ok": true, ...}`` when every
    probe passes and 503 otherwise. Progress watermarks (``beat``)
    report seconds since the component last made progress.

``/trace``
    The tracer's recent-span dump (:meth:`SpanTracer.to_dict`).

``/provenance``
    Per-mention decision records (:mod:`repro.obs.provenance`): every
    record the owner holds, so a mid-run pool can be asked *why* a
    mention resolved the way it did.

Every endpoint reads owner state directly. Pool workers' telemetry
reaches it through :mod:`repro.obs.aggregate`: the owner merges each
worker shipment (metric deltas, closed spans, decision records) under
``worker=<rank>`` as it arrives, so a scrape needs no merge of its own
and repeated scrapes cannot double count.

Nothing in this module is imported unless the server (or the flight
recorder / sampler) is actually requested — ``repro.obs`` exposes it
via a lazy ``__getattr__`` so the ``obs.enabled`` fast path stays free
of ``http.server``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro.obs as obs
from repro.obs import provenance
from repro.obs.metrics import parse_metric_key

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99))


def _prom_name(name: str) -> str:
    return _NAME_SANITISER.sub("_", name)


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(
            _prom_name(str(k)),
            str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for k, v in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(summary: dict) -> str:
    """Render a :meth:`MetricsRegistry.to_dict` summary as exposition text.

    Counters → ``counter``, gauges → ``gauge``, histograms → Prometheus
    ``summary`` (quantile series + ``_count``/``_sum``). ``# TYPE``
    lines are emitted once per metric family, before its first sample.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit(kind: str, key: str, value, suffix: str = "", quantile=None):
        name, labels = parse_metric_key(key)
        family = _prom_name(name)
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {kind}")
        if quantile is not None:
            labels = {**labels, "quantile": quantile}
        lines.append(
            f"{family}{suffix}{_prom_labels(labels)} {_format_value(value)}"
        )

    for key, value in summary.get("counters", {}).items():
        emit("counter", key, value)
    for key, value in summary.get("gauges", {}).items():
        emit("gauge", key, value)
    for key, hist in summary.get("histograms", {}).items():
        name, labels = parse_metric_key(key)
        family = _prom_name(name)
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} summary")
        for quantile, q in _QUANTILES:
            sample = hist.get(f"p{int(q * 100)}")
            lines.append(
                f"{family}{_prom_labels({**labels, 'quantile': quantile})}"
                f" {_format_value(sample)}"
            )
        lines.append(f"{family}_count{_prom_labels(labels)} {hist['count']}")
        lines.append(
            f"{family}_sum{_prom_labels(labels)} {_format_value(hist['sum'])}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Health registry
# ----------------------------------------------------------------------
class HealthRegistry:
    """Named readiness probes + progress watermarks for /healthz.

    Components register ``probe() -> dict`` callables returning at least
    ``{"ok": bool}``; :meth:`check` runs them all and aggregates. A
    probe that raises is reported unhealthy with the error, not
    propagated. :meth:`beat` records "component made progress now";
    the report includes seconds since each component's last beat so a
    wedged-but-alive process is visible.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probes: dict[str, object] = {}
        self._beats: dict[str, float] = {}

    def register(self, name: str, probe) -> None:
        with self._lock:
            self._probes[name] = probe

    def unregister(self, name: str, probe=None) -> None:
        """Remove ``name``; with ``probe``, only if it is still the owner.

        Compared with ``==`` (not ``is``): bound methods are fresh
        objects on every attribute access but compare equal.
        """
        with self._lock:
            if probe is None or self._probes.get(name) == probe:
                self._probes.pop(name, None)
                self._beats.pop(name, None)

    def beat(self, name: str) -> None:
        with self._lock:
            self._beats[name] = time.monotonic()

    def reset(self) -> None:
        with self._lock:
            self._probes.clear()
            self._beats.clear()

    def check(self) -> dict:
        """Aggregate report: ``ok`` iff every component probe passes."""
        with self._lock:
            probes = dict(self._probes)
            beats = dict(self._beats)
        now = time.monotonic()
        components: dict[str, dict] = {}
        ok = True
        for name, probe in sorted(probes.items()):
            try:
                report = dict(probe())
            except Exception as error:
                report = {"ok": False, "error": repr(error)}
            report.setdefault("ok", False)
            if name in beats:
                report["seconds_since_progress"] = now - beats[name]
            ok = ok and bool(report["ok"])
            components[name] = report
        return {
            "ok": ok,
            "unix_time": time.time(),
            "components": components,
        }


#: Process-global health registry the /healthz endpoint reads.
health = HealthRegistry()


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    # Readonly GET endpoints only; everything else is 404.

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = render_prometheus(obs.metrics.to_dict())
                self._send(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
            elif path == "/metrics.json":
                body = json.dumps(obs.metrics.to_dict(), indent=2)
                self._send(200, "application/json", body)
            elif path == "/healthz":
                report = health.check()
                self._send(
                    200 if report["ok"] else 503,
                    "application/json",
                    json.dumps(report, indent=2),
                )
            elif path == "/trace":
                body = json.dumps(obs.tracer.to_dict(), indent=2)
                self._send(200, "application/json", body)
            elif path == "/provenance":
                records = provenance.snapshot_records()
                body = json.dumps(
                    {
                        "active": provenance.active,
                        "num_records": len(records),
                        "records": records,
                    },
                    indent=2,
                )
                self._send(200, "application/json", body)
            else:
                self._send(404, "text/plain", "not found\n")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # scrapes every second would spam stderr


class TelemetryServer:
    """Background HTTP server for the live endpoints.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` for the actual one. The serving thread is a daemon so
    a crashing main thread never hangs on it.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        self._requested_port = port
        self.host = host
        self.port: int | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
        self.port = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("telemetry server is not running")
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
