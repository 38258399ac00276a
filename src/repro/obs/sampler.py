"""Periodic /proc resource sampler: RSS, CPU, fds, shm, store residency.

Leaks and budget thrash are invisible between batches without a
background observer. :class:`ResourceSampler` runs a daemon thread that
every ``interval`` seconds records, as gauges on the global registry:

- ``process.resident_bytes``   — ``VmRSS`` of the owner process
- ``process.shm_bytes``        — ``RssShmem`` (shared-memory resident
  pages; the payload plane an :class:`AnnotatorPool` exports)
- ``process.cpu_seconds``      — cumulative user+system CPU time
- ``process.open_fds``         — ``len(/proc/self/fd)``

The same gauges are recorded per pool worker under a ``pid=<n>`` label
when a *pids provider* is registered (:func:`register_pids_provider` —
the pool registers its live worker pids). Arbitrary extra gauges come
from *gauge sources* (:func:`register_gauge_source` — the CLI registers
``store.resident_bytes`` off the attached payload store), sampled on
the same cadence.

Everything reads ``/proc`` directly — no psutil, no extra deps — and a
pid that exits between listing and reading is skipped silently. The
sampler is entirely opt-in: nothing starts unless constructed and
started, so the ``obs.enabled`` fast path is untouched.
"""

from __future__ import annotations

import os
import threading

import repro.obs as obs

_DEFAULT_INTERVAL = 1.0
_PAGE_KB = 1024

# /proc/<pid>/status fields we sample, mapped to gauge names.
_STATUS_FIELDS = {
    "VmRSS": "process.resident_bytes",
    "RssShmem": "process.shm_bytes",
}


def _read_status_bytes(pid: int) -> dict[str, int]:
    """``{gauge_name: bytes}`` from /proc/<pid>/status; {} if gone."""
    values: dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                field, _, rest = line.partition(":")
                name = _STATUS_FIELDS.get(field)
                if name is not None:
                    values[name] = int(rest.split()[0]) * _PAGE_KB
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return {}
    return values


def _open_fds(pid: int) -> int | None:
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None


# ----------------------------------------------------------------------
# Module-level source registries (like exporter.health, process-global)
# ----------------------------------------------------------------------
_source_lock = threading.Lock()
_pids_providers: dict[int, object] = {}
_gauge_sources: dict[int, tuple[str, object]] = {}
_source_token = 0


def register_pids_provider(provider) -> int:
    """Register ``provider() -> iterable[int]`` of extra pids to sample.

    The pool registers its live worker pids; each sampled pid gets the
    per-process gauges under a ``pid=<n>`` label. Returns a token for
    :func:`unregister_pids_provider`.
    """
    global _source_token
    with _source_lock:
        _source_token += 1
        _pids_providers[_source_token] = provider
        return _source_token


def unregister_pids_provider(token: int) -> None:
    with _source_lock:
        _pids_providers.pop(token, None)


def register_gauge_source(name: str, fn) -> int:
    """Register ``fn() -> float | None`` sampled into gauge ``name``.

    ``None`` (or a raising fn) skips the sample — a detached store
    simply stops updating its gauge. Returns a token for
    :func:`unregister_gauge_source`.
    """
    global _source_token
    with _source_lock:
        _source_token += 1
        _gauge_sources[_source_token] = (name, fn)
        return _source_token


def unregister_gauge_source(token: int) -> None:
    with _source_lock:
        _gauge_sources.pop(token, None)


class ResourceSampler:
    """Daemon thread recording resource gauges every ``interval`` seconds."""

    def __init__(self, interval: float = _DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- one sampling pass ---------------------------------------------
    def sample_once(self, registry=None) -> None:
        """Record one sample of every gauge; callable without a thread."""
        registry = registry if registry is not None else obs.metrics
        for name, value in _read_status_bytes(os.getpid()).items():
            registry.gauge(name).set(value)
        times = os.times()
        registry.gauge("process.cpu_seconds").set(times.user + times.system)
        fds = _open_fds(os.getpid())
        if fds is not None:
            registry.gauge("process.open_fds").set(fds)

        with _source_lock:
            providers = list(_pids_providers.values())
            sources = list(_gauge_sources.values())
        for provider in providers:
            try:
                pids = list(provider())
            except Exception:
                continue
            for pid in pids:
                for name, value in _read_status_bytes(pid).items():
                    registry.gauge(name, pid=pid).set(value)
                fds = _open_fds(pid)
                if fds is not None:
                    registry.gauge("process.open_fds", pid=pid).set(fds)
        for name, fn in sources:
            try:
                value = fn()
            except Exception:
                continue
            if value is not None:
                registry.gauge(name).set(value)

    # -- thread lifecycle ----------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - sampling must never
                pass           # take the process down

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self.sample_once()  # gauges exist from the first scrape on
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
