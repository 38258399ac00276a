"""Process-local metrics primitives: counters, gauges, histograms.

Everything here is pure stdlib + numpy-free so the observability layer
adds zero hard dependencies. Instruments are cheap mutable cells; the
:class:`MetricsRegistry` is the namespace that owns them, keyed by a
metric name plus optional labels (``registry.histogram("train.loss",
epoch=3)`` → key ``train.loss{epoch=3}``).

Histograms keep exact count/sum/min/max plus a fixed-size uniform
reservoir (Vitter's algorithm R) for quantile estimates, so recording a
million observations costs O(reservoir) memory. Reservoir replacement
uses a per-histogram RNG seeded from the metric key, keeping exports
reproducible run to run for a fixed observation stream.

Every instrument is *mergeable*: :meth:`MetricsRegistry.snapshot`
produces a picklable plain-dict view that a pool worker can ship over a
queue, and :meth:`MetricsRegistry.merge` folds such a snapshot into
another registry — exactly for counts/sums/extrema, and by weighted
reservoir subsampling for histogram quantiles (see
:meth:`Histogram.merge`). ``merge(..., worker=3)`` re-keys every
incoming instrument with extra labels so per-process streams stay
distinguishable after aggregation.
"""

from __future__ import annotations

import json
import random
import threading
import zlib
from pathlib import Path


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins scalar (e.g. current eval accuracy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution summary with reservoir quantiles."""

    __slots__ = ("count", "total", "min", "max", "reservoir", "_size", "_rng")

    def __init__(self, reservoir_size: int = 1024, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.reservoir: list[float] = []
        self._size = reservoir_size
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.reservoir) < self._size:
            self.reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._size:
                self.reservoir[slot] = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Reservoir quantile with linear interpolation; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.reservoir:
            return None
        ordered = sorted(self.reservoir)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> dict:
        """JSON-ready snapshot: exact moments + reservoir quantiles."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    # -- cross-process aggregation --------------------------------------
    def snapshot(self) -> dict:
        """Picklable state capturing everything :meth:`merge` needs."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "reservoir": list(self.reservoir),
        }

    def merge(self, other: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Count/sum/min/max merge exactly. The merged reservoir is a
        uniform subsample of the union of the two observation streams:
        while both reservoirs fit, they are simply concatenated (which
        is *exact* whenever both sides saw fewer observations than
        their reservoir size); past capacity, slots are drawn from each
        side with probability proportional to the observation mass each
        reservoir element represents.
        """
        other_count = int(other["count"])
        if other_count == 0:
            return
        other_min = other["min"]
        other_max = other["max"]
        if self.min is None or (other_min is not None and other_min < self.min):
            self.min = other_min
        if self.max is None or (other_max is not None and other_max > self.max):
            self.max = other_max
        mine = list(self.reservoir)
        theirs = list(other["reservoir"])
        both_exhaustive = (
            self.count == len(mine) and other_count == len(theirs)
        )
        if both_exhaustive and len(mine) + len(theirs) <= self._size:
            # Both reservoirs hold their full streams: the merge is exact.
            self.reservoir = mine + theirs
        else:
            # Weight per element: how many observations it stands for.
            weight_mine = self.count / len(mine) if mine else 0.0
            weight_theirs = other_count / len(theirs) if theirs else 0.0
            self._rng.shuffle(mine)
            self._rng.shuffle(theirs)
            merged: list[float] = []
            mass_mine = self.count if mine else 0.0
            mass_theirs = other_count if theirs else 0.0
            while len(merged) < self._size and (mine or theirs):
                total_mass = mass_mine + mass_theirs
                if mine and (
                    not theirs
                    or self._rng.random() < mass_mine / total_mass
                ):
                    merged.append(mine.pop())
                    mass_mine = max(0.0, mass_mine - weight_mine)
                else:
                    merged.append(theirs.pop())
                    mass_theirs = max(0.0, mass_theirs - weight_theirs)
            self.reservoir = merged
        self.count += other_count
        self.total += float(other["sum"])


def metric_key(name: str, labels: dict) -> str:
    """Canonical registry key: ``name`` or ``name{k1=v1,k2=v2}`` (sorted)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`: ``name{a=1,b=2}`` → name + labels.

    Label values come back as strings — the key format does not
    preserve types, and merged keys only ever need re-rendering.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rendered = key[:-1].partition("{")
    labels: dict[str, str] = {}
    if rendered:
        for part in rendered.split(","):
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def relabel_metric_key(key: str, extra: dict) -> str:
    """Re-render ``key`` with ``extra`` labels added (extra wins)."""
    if not extra:
        return key
    name, labels = parse_metric_key(key)
    labels.update({k: str(v) for k, v in extra.items()})
    return metric_key(name, labels)


def _stable_seed(key: str) -> int:
    """Process-independent histogram seed (``hash()`` is salted)."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class MetricsRegistry:
    """Get-or-create namespace for counters, gauges, and histograms.

    Instrument creation is lock-protected; recording on an instrument is
    a plain attribute update (safe under the GIL for our single-writer
    pipelines, and never worse than approximate under races).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(
        self, name: str, reservoir_size: int = 1024, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(reservoir_size, seed=_stable_seed(key))
                )
        return instrument

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Snapshot of every instrument, JSON-serializable.

        Taken under the creation lock so it never iterates the
        instrument maps while another thread inserts a new instrument.
        """
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.summary() for k, h in sorted(self._histograms.items())
                },
            }

    def snapshot(self) -> dict:
        """Mergeable, picklable state of every instrument.

        Unlike :meth:`to_dict` (a human/JSON summary), the snapshot
        carries full histogram reservoirs so :meth:`merge` can combine
        registries from different processes without losing quantile
        information. Locked like :meth:`to_dict`.
        """
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {
                    k: g.value
                    for k, g in sorted(self._gauges.items())
                    if g.value is not None
                },
                "histograms": {
                    k: h.snapshot() for k, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict, **labels) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        ``labels`` are added to every incoming key (``worker=3`` turns
        ``parallel.pool.chunk_seconds`` into
        ``parallel.pool.chunk_seconds{worker=3}``), so per-process
        streams remain distinguishable after aggregation. Counters add,
        gauges are last-write-wins, histograms merge exactly on
        count/sum/min/max and by reservoir subsampling on quantiles.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, key_labels = parse_metric_key(key)
            self.counter(name, **{**key_labels, **labels}).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            if value is None:
                continue
            name, key_labels = parse_metric_key(key)
            self.gauge(name, **{**key_labels, **labels}).set(value)
        for key, hist_snapshot in snapshot.get("histograms", {}).items():
            name, key_labels = parse_metric_key(key)
            self.histogram(name, **{**key_labels, **labels}).merge(
                hist_snapshot
            )

    def export_json(self, path) -> None:
        """Write the :meth:`to_dict` snapshot to ``path``."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
