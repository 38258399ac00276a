"""Dense in-memory payload store — the default backend.

Holds each plane as one contiguous ndarray, as
``EntityEmbedder.build_static_cache`` computes it; gathers are plain
fancy indexing. The other backends are checked byte-identical against
this one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StoreError
from repro.store.base import EntityPayloadStore


class DensePayloadStore(EntityPayloadStore):
    """One in-memory block per plane; zero indirection on gather."""

    kind = "dense"

    def __init__(self, static: np.ndarray, entity_part: np.ndarray | None = None) -> None:
        static = np.asarray(static)
        if static.ndim != 2:
            raise StoreError(
                f"static plane must be 2-D, got shape {static.shape}"
            )
        if entity_part is not None:
            entity_part = np.asarray(entity_part)
            if entity_part.shape != static.shape:
                raise StoreError(
                    "entity_part plane shape "
                    f"{entity_part.shape} != static plane shape {static.shape}"
                )
        self._static = static
        self._entity_part = entity_part

    @property
    def num_rows(self) -> int:
        return int(self._static.shape[0])

    @property
    def hidden_dim(self) -> int:
        return int(self._static.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._static.dtype

    @property
    def has_entity_part(self) -> bool:
        return self._entity_part is not None

    def _gather_static(self, ids: np.ndarray) -> np.ndarray:
        return self._static[ids]

    def _gather_entity_part(self, ids: np.ndarray) -> np.ndarray:
        return self._entity_part[ids]

    def resident_bytes(self) -> int:
        total = self._static.nbytes
        if self._entity_part is not None:
            total += self._entity_part.nbytes
        return int(total)

    def export_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"static": self._static}
        if self._entity_part is not None:
            arrays["entity_part"] = self._entity_part
        return arrays

    def export_meta(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_export(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "DensePayloadStore":
        if "static" not in arrays:
            raise StoreError("dense store export is missing the static plane")
        return cls(arrays["static"], arrays.get("entity_part"))
