"""The pluggable entity-payload store interface.

The payload plane — one fused static row per entity plus (optionally)
the separable entity-embedding contribution — dominates serving memory
(Bootleg §5). :class:`EntityPayloadStore` abstracts how those rows are
held so the rest of the system (``EntityEmbedder.forward_cached``, the
annotator pool, the CLI) is indifferent to the backend:

``dense``
    One contiguous in-memory block per plane; the default, and
    byte-identical to the pre-store fast path.
``mmap``
    Rows written to disk as N fixed-width shards with a manifest;
    shards are attached lazily via ``np.memmap`` on first touch and
    detached LRU-first under a memory budget
    (:class:`~repro.store.mmap.ShardedMmapStore`).
``tiered``
    The paper's top-k% compression: full-precision rows for the top-k%
    entities by popularity, a quantized tail block sharing one entity
    contribution for the rest
    (:class:`~repro.store.tiered.TieredPayloadStore`).

Every store serves two row planes:

``static``
    The sentence-independent fused payload row per entity (bias +
    entity + type + relation [+ title] contributions).
``entity_part``
    The entity-embedding contribution alone, subtracted from padded
    candidate slots; absent when the model runs without ``u_e``.

Stores also know how to cross a process boundary: ``export_meta()``
returns a picklable descriptor and ``export_arrays()`` the arrays that
must ride the shared-memory plane (empty for file-backed stores, whose
workers re-open the files and share pages through the OS page cache).
:func:`repro.store.restore_from_export` rebuilds the store on the
worker side.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs
from repro.errors import StoreError


class EntityPayloadStore:
    """Read-only row store for the per-entity payload planes."""

    #: Backend identifier; also the ``--store`` CLI value and the
    #: dispatch key of :func:`repro.store.restore_from_export`.
    kind: str = "abstract"

    # -- geometry -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def hidden_dim(self) -> int:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        raise NotImplementedError

    @property
    def has_entity_part(self) -> bool:
        raise NotImplementedError

    # -- row access -----------------------------------------------------
    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Static payload rows for ``ids``; shape ``ids.shape + (H,)``.

        Always returns a freshly allocated, writable array (callers
        mutate it in place to subtract padded entity contributions).
        """
        ids = np.asarray(ids)
        if obs.enabled:
            started = time.perf_counter()
            out = self._gather_static(ids)
            obs.metrics.histogram("store.row_gather_seconds").observe(
                time.perf_counter() - started
            )
            return out
        return self._gather_static(ids)

    def gather_entity_part(self, ids: np.ndarray) -> np.ndarray:
        """Entity-embedding contribution rows for ``ids``."""
        if not self.has_entity_part:
            raise StoreError(
                f"{self.kind} store holds no entity_part plane"
            )
        return self._gather_entity_part(np.asarray(ids))

    def _gather_static(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gather_entity_part(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- accounting / lifecycle -----------------------------------------
    def resident_bytes(self) -> int:
        """Bytes of payload currently resident (attached) in memory."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any attached resources; the store becomes unusable."""

    # -- process-boundary plumbing --------------------------------------
    def export_arrays(self) -> dict[str, np.ndarray]:
        """Arrays a pool owner must place on the shared-memory plane."""
        return {}

    def export_meta(self) -> dict:
        """Picklable descriptor from which a worker rebuilds the store."""
        return {"kind": self.kind}

    @classmethod
    def from_export(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "EntityPayloadStore":
        raise NotImplementedError
