"""Pluggable entity payload stores (dense / sharded mmap / tiered).

See :mod:`repro.store.base` for the interface and
``docs/ENTITY_STORE.md`` for the design.
"""

import numpy as np

from repro.errors import StoreError
from repro.store.base import EntityPayloadStore
from repro.store.dense import DensePayloadStore
from repro.store.mmap import (
    DEFAULT_SHARD_ROWS,
    ShardedMmapStore,
    ShardedStoreWriter,
    write_sharded_store,
)
from repro.store.tiered import TieredPayloadStore

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "DensePayloadStore",
    "EntityPayloadStore",
    "ShardedMmapStore",
    "ShardedStoreWriter",
    "TieredPayloadStore",
    "restore_from_export",
    "write_sharded_store",
]

#: ``export_meta()["kind"]`` → the backend that restores it.
_STORE_CLASSES: dict[str, type[EntityPayloadStore]] = {
    cls.kind: cls
    for cls in (DensePayloadStore, ShardedMmapStore, TieredPayloadStore)
}


def restore_from_export(
    meta: dict, arrays: dict[str, np.ndarray]
) -> EntityPayloadStore:
    """Rebuild a store from ``export_meta()`` + ``export_arrays()``."""
    kind = meta.get("kind")
    cls = _STORE_CLASSES.get(kind)
    if cls is None:
        raise StoreError(f"unknown entity store kind {kind!r}")
    return cls.from_export(meta, arrays)
