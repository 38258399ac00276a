"""Sharded memory-mapped payload store.

Layout on disk (``store_dir``)::

    manifest.json        {"format": "repro.store/v1", "shard_rows": R,
                          "num_rows": N,
                          "planes": {"static": {"file": "static.payload",
                                                "dim": H, "dtype": "<f4"},
                                     ...}}
    static.payload       raw row-major rows, N * H * itemsize bytes
    entity_part.payload  (optional) same geometry

Each plane is ONE data file; a "shard" is a fixed-width window of
``shard_rows`` rows into it, attached on first touch as a read-only
``np.memmap`` at the right byte offset. Keeping one file per plane
(rather than one file per shard) is what makes the warm path cheap:
once every shard of a plane has been attached, the store switches to a
single full-span memmap and gathers with one fancy index — the same
single-copy operation the dense store performs, so warm throughput
tracks dense. Under a memory budget the full span never materialises;
gathers group ids by shard, touch one window at a time, and detach
least-recently-used shards so the attached set stays within budget.

"Resident" here counts the bytes of attached shard windows — the pages
the OS is entitled to keep hot for us. Detaching deletes the memmap so
the page cache can reclaim them under pressure.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.errors import StoreError
from repro.store.base import EntityPayloadStore

FORMAT = "repro.store/v1"
MANIFEST_NAME = "manifest.json"
#: Default shard width: 128k rows ≈ 32 MiB per shard at H=64 float32.
DEFAULT_SHARD_ROWS = 131072

_PLANE_NAME = re.compile(r"^[A-Za-z0-9_]+$")


class ShardedStoreWriter:
    """Streaming writer: append row chunks per plane, then finalize.

    Chunks are appended straight to the plane's data file so a payload
    far larger than memory can be written incrementally.
    """

    def __init__(self, store_dir: str | Path, shard_rows: int = DEFAULT_SHARD_ROWS) -> None:
        if shard_rows < 1:
            raise StoreError(f"shard_rows must be positive, got {shard_rows}")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.shard_rows = int(shard_rows)
        self._planes: dict[str, dict] = {}
        self._handles: dict[str, object] = {}
        self._finalized = False

    def append(self, plane: str, rows: np.ndarray) -> None:
        """Append a 2-D chunk of rows to ``plane``."""
        if self._finalized:
            raise StoreError("writer already finalized")
        if not _PLANE_NAME.match(plane):
            raise StoreError(f"invalid plane name {plane!r}")
        rows = np.ascontiguousarray(rows)
        if rows.ndim != 2:
            raise StoreError(f"plane chunks must be 2-D, got shape {rows.shape}")
        info = self._planes.get(plane)
        if info is None:
            info = {"rows": 0, "dim": int(rows.shape[1]), "dtype": rows.dtype.str}
            self._planes[plane] = info
            self._handles[plane] = open(self.store_dir / f"{plane}.payload", "wb")
        if int(rows.shape[1]) != info["dim"] or rows.dtype.str != info["dtype"]:
            raise StoreError(
                f"plane {plane!r} chunk geometry {rows.shape[1]}/{rows.dtype.str} "
                f"does not match first chunk {info['dim']}/{info['dtype']}"
            )
        self._handles[plane].write(rows.tobytes())
        info["rows"] += int(rows.shape[0])

    def finalize(self) -> dict:
        """Flush data files, write the manifest, and return it."""
        if self._finalized:
            raise StoreError("writer already finalized")
        if "static" not in self._planes:
            raise StoreError("a payload store requires a 'static' plane")
        num_rows = self._planes["static"]["rows"]
        for plane, info in self._planes.items():
            if info["rows"] != num_rows:
                raise StoreError(
                    f"plane {plane!r} has {info['rows']} rows, "
                    f"static plane has {num_rows}"
                )
        self.close()
        manifest = {
            "format": FORMAT,
            "shard_rows": self.shard_rows,
            "num_rows": num_rows,
            "planes": {
                plane: {"file": f"{plane}.payload", **info}
                for plane, info in self._planes.items()
            },
        }
        with open(self.store_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        self._finalized = True
        return manifest

    def close(self) -> None:
        """Close any open plane files; idempotent, safe after an abort.

        Without it, a caller that raises between ``append`` and
        ``finalize`` leaks one open handle per plane.
        """
        while self._handles:
            _, handle = self._handles.popitem()
            handle.close()

    def __enter__(self) -> "ShardedStoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_sharded_store(
    store_dir: str | Path,
    planes: dict[str, np.ndarray],
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> dict:
    """Write in-memory planes to ``store_dir``; returns the manifest."""
    with ShardedStoreWriter(store_dir, shard_rows=shard_rows) as writer:
        order = ["static"] + sorted(k for k in planes if k != "static")
        for plane in order:
            if plane not in planes:
                continue
            array = planes[plane]
            # Chunked append keeps peak extra memory at one shard even for
            # callers handing over huge arrays.
            for start in range(0, array.shape[0], shard_rows):
                writer.append(plane, array[start : start + shard_rows])
            if array.shape[0] == 0:
                writer.append(plane, array)
        return writer.finalize()


class _PlaneMaps:
    """Attachment state of one plane: shard windows + full-span view."""

    def __init__(self, path: Path, rows: int, dim: int, dtype: np.dtype, shard_rows: int) -> None:
        self.path = path
        self.rows = rows
        self.dim = dim
        self.dtype = dtype
        self.shard_rows = shard_rows
        self.num_shards = max(1, -(-rows // shard_rows))
        self.windows: dict[int, np.memmap] = {}
        self.full: np.memmap | None = None

    def shard_geometry(self, shard: int) -> tuple[int, int]:
        start = shard * self.shard_rows
        return start, min(self.rows, start + self.shard_rows) - start

    def window_bytes(self, shard: int) -> int:
        _, length = self.shard_geometry(shard)
        return length * self.dim * self.dtype.itemsize


class ShardedMmapStore(EntityPayloadStore):
    """Lazy shard attach, LRU detach under budget, zero-copy windows."""

    kind = "mmap"

    def __init__(
        self,
        store_dir: Path,
        manifest: dict,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.manifest = manifest
        self.memory_budget_bytes = memory_budget_bytes
        self._num_rows = int(manifest["num_rows"])
        self._shard_rows = int(manifest["shard_rows"])
        self._planes: dict[str, _PlaneMaps] = {}
        for plane, info in manifest["planes"].items():
            path = self.store_dir / info["file"]
            if not path.exists():
                raise StoreError(f"missing plane data file: {path}")
            dtype = np.dtype(info["dtype"])
            expected = int(info["rows"]) * int(info["dim"]) * dtype.itemsize
            actual = path.stat().st_size
            if actual != expected:
                raise StoreError(
                    f"plane file {path} holds {actual} bytes, "
                    f"manifest expects {expected}"
                )
            self._planes[plane] = _PlaneMaps(
                path, int(info["rows"]), int(info["dim"]), dtype, self._shard_rows
            )
        if "static" not in self._planes:
            raise StoreError(f"store at {store_dir} has no static plane")
        # LRU over (plane, shard): least-recently-touched first.
        self._lru: OrderedDict[tuple[str, int], int] = OrderedDict()
        self._resident = 0
        self._closed = False

    @classmethod
    def open(
        cls, store_dir: str | Path, memory_budget_bytes: int | None = None
    ) -> "ShardedMmapStore":
        store_dir = Path(store_dir)
        manifest_path = store_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no store manifest at {manifest_path}")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != FORMAT:
            raise StoreError(
                f"unsupported store format {manifest.get('format')!r} "
                f"(expected {FORMAT!r})"
            )
        return cls(store_dir, manifest, memory_budget_bytes=memory_budget_bytes)

    # -- geometry -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def hidden_dim(self) -> int:
        return self._planes["static"].dim

    @property
    def dtype(self) -> np.dtype:
        return self._planes["static"].dtype

    @property
    def has_entity_part(self) -> bool:
        return "entity_part" in self._planes

    @property
    def shard_rows(self) -> int:
        return self._shard_rows

    # -- attachment bookkeeping -----------------------------------------
    def resident_bytes(self) -> int:
        return self._resident

    def attached_shards(self) -> int:
        return len(self._lru)

    def health(self) -> dict:
        """Readiness + residency/budget pressure for /healthz.

        ``over_budget`` is informational, not a failure: a single shard
        larger than the budget legitimately pins residency above it
        (the LRU always keeps the shard being read), and flapping
        /healthz on that would page someone for normal operation.
        """
        over_budget = (
            self.memory_budget_bytes is not None
            and self._resident > self.memory_budget_bytes
        )
        return {
            "ok": not self._closed,
            "kind": self.kind,
            "resident_bytes": self._resident,
            "attached_shards": self.attached_shards(),
            "memory_budget_bytes": self.memory_budget_bytes,
            "over_budget": over_budget,
        }

    def _set_resident(self, value: int) -> None:
        self._resident = value
        if obs.enabled:
            obs.metrics.gauge("store.resident_bytes").set(float(value))

    def _attach(self, plane: _PlaneMaps, name: str, shard: int) -> np.memmap:
        window = plane.windows.get(shard)
        if window is not None:
            self._lru.move_to_end((name, shard))
            return window
        start, length = plane.shard_geometry(shard)
        window = np.memmap(
            plane.path,
            dtype=plane.dtype,
            mode="r",
            offset=start * plane.dim * plane.dtype.itemsize,
            shape=(length, plane.dim),
        )
        plane.windows[shard] = window
        nbytes = plane.window_bytes(shard)
        self._lru[(name, shard)] = nbytes
        self._set_resident(self._resident + nbytes)
        if obs.enabled:
            obs.metrics.counter("store.shard_attach").inc()
        self._evict(keep=(name, shard))
        if len(plane.windows) == plane.num_shards and plane.full is None:
            plane.full = np.memmap(
                plane.path, dtype=plane.dtype, mode="r", shape=(plane.rows, plane.dim)
            )
        return window

    def _evict(self, keep: tuple[str, int]) -> None:
        if self.memory_budget_bytes is None:
            return
        while self._resident > self.memory_budget_bytes and len(self._lru) > 1:
            victim, nbytes = next(iter(self._lru.items()))
            if victim == keep:
                # The shard we are about to read must stay resident;
                # bump it to most-recent and evict the next-oldest.
                self._lru.move_to_end(victim)
                continue
            del self._lru[victim]
            plane = self._planes[victim[0]]
            del plane.windows[victim[1]]
            plane.full = None
            self._set_resident(self._resident - nbytes)
            if obs.enabled:
                obs.metrics.counter("store.shard_detach").inc()

    def warm(self, plane: str = "static") -> None:
        """Attach every shard of ``plane`` (as far as the budget allows)."""
        maps = self._planes[plane]
        for shard in range(maps.num_shards):
            self._attach(maps, plane, shard)

    # -- row access -----------------------------------------------------
    def _gather_plane(self, name: str, ids: np.ndarray) -> np.ndarray:
        if self._closed:
            raise StoreError("store is closed")
        plane = self._planes[name]
        flat = np.ascontiguousarray(ids, dtype=np.int64).reshape(-1)
        out_shape = tuple(ids.shape) + (plane.dim,)
        if plane.full is not None:
            # Warm path: every shard is attached, so one fancy index on
            # the full-span map is the same single copy dense performs.
            for key in [k for k in self._lru if k[0] == name]:
                self._lru.move_to_end(key)
            return np.asarray(plane.full[flat]).reshape(out_shape)
        out = np.empty((flat.shape[0], plane.dim), dtype=plane.dtype)
        shard_of = flat // self._shard_rows
        for shard in np.unique(shard_of):
            shard = int(shard)
            if shard < 0 or shard >= plane.num_shards:
                raise StoreError(
                    f"entity id out of range for plane {name!r} "
                    f"(shard {shard} of {plane.num_shards})"
                )
            window = self._attach(plane, name, shard)
            mask = shard_of == shard
            out[mask] = window[flat[mask] - shard * self._shard_rows]
        return out.reshape(out_shape)

    def _gather_static(self, ids: np.ndarray) -> np.ndarray:
        return self._gather_plane("static", ids)

    def _gather_entity_part(self, ids: np.ndarray) -> np.ndarray:
        return self._gather_plane("entity_part", ids)

    # -- lifecycle / export ---------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for plane in self._planes.values():
            plane.windows.clear()
            plane.full = None
        self._lru.clear()
        self._set_resident(0)

    def export_meta(self) -> dict:
        return {
            "kind": self.kind,
            "store_dir": str(self.store_dir),
            "memory_budget_bytes": self.memory_budget_bytes,
        }

    @classmethod
    def from_export(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "ShardedMmapStore":
        # Workers re-open the files themselves; pages are shared with
        # the owner through the OS page cache, not the shm plane.
        return cls.open(
            meta["store_dir"], memory_budget_bytes=meta.get("memory_budget_bytes")
        )
