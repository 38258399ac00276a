"""Tiered compressed payload store — the paper's top-k% on the payload plane.

Bootleg's compression result (§4.4, Figure 3) keeps the learned entity
embeddings of the top-k% entities by training popularity and maps every
tail entity onto one shared "unseen entity" embedding. This store
applies that policy to the *fused payload rows* the annotator actually
serves:

head (top-k% by ``entity_counts``)
    Full-precision static and entity-part rows, stored exactly — head
    gathers are bitwise-identical to the dense store over a
    compress-then-rebuild table.
tail (everything else)
    Only the entity-*independent* part of each row (static minus
    entity contribution) is kept, quantized per-row to uint8 with an
    affine scale/offset, plus ONE shared full-precision entity
    contribution — the replacement entity's — added back on gather.
    This mirrors what :func:`repro.core.compress.compressed_embeddings`
    does to the embedding table, so a tiered gather agrees with
    compress-then-dense up to the uint8 quantization error.

The replacement entity is chosen exactly as ``compressed_embeddings``
chooses it (same default rng, same unseen-entity pool) so the two code
paths compress onto the same shared vector.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StoreError
from repro.store.base import EntityPayloadStore

_COMPONENTS = (
    "head_slot",
    "tail_slot",
    "head_rows",
    "head_entity_part",
    "tail_q",
    "tail_scale",
    "tail_min",
    "shared_entity",
)


class TieredPayloadStore(EntityPayloadStore):
    """Full-precision head rows + shared quantized tail block."""

    kind = "tiered"

    def __init__(
        self,
        head_slot: np.ndarray,
        tail_slot: np.ndarray,
        head_rows: np.ndarray,
        head_entity_part: np.ndarray,
        tail_q: np.ndarray,
        tail_scale: np.ndarray,
        tail_min: np.ndarray,
        shared_entity: np.ndarray,
        keep_percent: float,
    ) -> None:
        self._head_slot = head_slot
        self._tail_slot = tail_slot
        self._head_rows = head_rows
        self._head_entity_part = head_entity_part
        self._tail_q = tail_q
        self._tail_scale = tail_scale
        self._tail_min = tail_min
        self._shared_entity = shared_entity
        self.keep_percent = float(keep_percent)

    @classmethod
    def build(
        cls,
        planes: dict[str, np.ndarray],
        entity_counts: np.ndarray,
        keep_percent: float,
        rng: np.random.Generator | None = None,
    ) -> "TieredPayloadStore":
        """Tier the dense planes by popularity at the paper's k.

        ``planes`` must hold ``static`` and ``entity_part`` (the tiering
        math needs the entity contribution separable from the rest).
        """
        if not 0.0 <= keep_percent <= 100.0:
            raise StoreError(f"keep_percent must be in [0, 100], got {keep_percent}")
        if "static" not in planes or "entity_part" not in planes:
            raise StoreError(
                "tiered store requires both static and entity_part planes"
            )
        static = np.asarray(planes["static"])
        entity_part = np.asarray(planes["entity_part"])
        if static.shape != entity_part.shape or static.ndim != 2:
            raise StoreError(
                f"plane shapes disagree: static {static.shape}, "
                f"entity_part {entity_part.shape}"
            )
        counts = np.asarray(entity_counts)
        total, dim = static.shape
        if counts.shape[0] != total:
            raise StoreError(
                f"entity_counts length {counts.shape[0]} does not match "
                f"{total} payload rows"
            )
        dtype = static.dtype
        # Head/tail split and replacement choice mirror
        # compressed_embeddings verbatim so both paths agree.
        kept = int(round(total * keep_percent / 100.0))
        order = np.argsort(-counts, kind="stable")
        head_ids = np.sort(order[:kept]).astype(np.int64)
        rng = rng or np.random.default_rng(0)
        unseen_ids = np.flatnonzero(counts == 0)
        if len(unseen_ids):
            shared_entity = entity_part[int(rng.choice(unseen_ids))].astype(dtype).copy()
        else:
            shared_entity = np.zeros(dim, dtype=dtype)

        head_slot = np.full(total, -1, dtype=np.int32)
        head_slot[head_ids] = np.arange(head_ids.shape[0], dtype=np.int32)
        tail_ids = np.flatnonzero(head_slot < 0)
        tail_slot = np.full(total, -1, dtype=np.int32)
        tail_slot[tail_ids] = np.arange(tail_ids.shape[0], dtype=np.int32)

        head_rows = np.ascontiguousarray(static[head_ids])
        head_entity_part = np.ascontiguousarray(entity_part[head_ids])

        base = static[tail_ids] - entity_part[tail_ids]
        row_min = (
            base.min(axis=1) if base.shape[0] else np.zeros(0, dtype=dtype)
        ).astype(dtype)
        row_max = (
            base.max(axis=1) if base.shape[0] else np.zeros(0, dtype=dtype)
        ).astype(dtype)
        scale = (row_max - row_min) / np.asarray(255.0, dtype=dtype)
        # Constant rows quantize to all-zeros with offset row_min.
        safe_scale = np.where(scale > 0, scale, 1)
        tail_q = np.clip(
            np.rint((base - row_min[:, None]) / safe_scale[:, None]), 0, 255
        ).astype(np.uint8)
        return cls(
            head_slot=head_slot,
            tail_slot=tail_slot,
            head_rows=head_rows,
            head_entity_part=head_entity_part,
            tail_q=tail_q,
            tail_scale=scale.astype(dtype),
            tail_min=row_min,
            shared_entity=shared_entity,
            keep_percent=keep_percent,
        )

    # -- geometry -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self._head_slot.shape[0])

    @property
    def hidden_dim(self) -> int:
        return int(self._shared_entity.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self._head_rows.dtype

    @property
    def has_entity_part(self) -> bool:
        return True

    @property
    def head_rows_kept(self) -> int:
        return int(self._head_rows.shape[0])

    # -- row access -----------------------------------------------------
    def _gather_static(self, ids: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(ids, dtype=np.int64).reshape(-1)
        out = np.empty((flat.shape[0], self.hidden_dim), dtype=self.dtype)
        head = self._head_slot[flat]
        head_mask = head >= 0
        if head_mask.any():
            out[head_mask] = self._head_rows[head[head_mask]]
        tail_mask = ~head_mask
        if tail_mask.any():
            slot = self._tail_slot[flat[tail_mask]]
            deq = (
                self._tail_q[slot].astype(self.dtype) * self._tail_scale[slot, None]
                + self._tail_min[slot, None]
            )
            out[tail_mask] = deq + self._shared_entity
        return out.reshape(tuple(ids.shape) + (self.hidden_dim,))

    def _gather_entity_part(self, ids: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(ids, dtype=np.int64).reshape(-1)
        out = np.empty((flat.shape[0], self.hidden_dim), dtype=self.dtype)
        head = self._head_slot[flat]
        head_mask = head >= 0
        if head_mask.any():
            out[head_mask] = self._head_entity_part[head[head_mask]]
        tail_mask = ~head_mask
        if tail_mask.any():
            # After compression every tail entity carries the shared
            # replacement contribution.
            out[tail_mask] = self._shared_entity
        return out.reshape(tuple(ids.shape) + (self.hidden_dim,))

    # -- accounting / export --------------------------------------------
    def resident_bytes(self) -> int:
        return int(sum(getattr(self, f"_{name}").nbytes for name in _COMPONENTS))

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, f"_{name}") for name in _COMPONENTS}

    def export_meta(self) -> dict:
        return {"kind": self.kind, "keep_percent": self.keep_percent}

    @classmethod
    def from_export(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "TieredPayloadStore":
        missing = [name for name in _COMPONENTS if name not in arrays]
        if missing:
            raise StoreError(f"tiered store export is missing {missing}")
        return cls(
            **{name: arrays[name] for name in _COMPONENTS},
            keep_percent=float(meta.get("keep_percent", 0.0)),
        )
