"""Entity-embedding compression (Section 4.4, Figure 3).

Keeps the learned embeddings of the top-k% entities by training
popularity and replaces every other row with the embedding of an unseen
entity. Because unseen rows are never updated from their shared (zero)
initialization, the replacement row *is* the "unknown entity" vector the
model already knows how to handle from the 2-D regularization.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.store.tiered import top_k_split


@dataclasses.dataclass(frozen=True)
class CompressionStats:
    keep_percent: float
    kept_rows: int
    total_rows: int
    embedding_mb_full: float
    embedding_mb_compressed: float

    @property
    def compression_ratio(self) -> float:
        """The paper's ratio: 100 - k (percentage of embeddings dropped)."""
        return 100.0 - self.keep_percent


def _entity_table(model):
    table = getattr(getattr(model, "embedder", None), "entity_table", None)
    if table is None:
        raise ConfigError("model has no entity embedding table to compress")
    return table


def compression_stats(model, keep_percent: float) -> CompressionStats:
    """Memory accounting for a given keep percentage (float32 MB)."""
    table = _entity_table(model)
    total, dim = table.weight.data.shape
    # The head's size depends only on the row count, not on the counts.
    kept = int(top_k_split(np.zeros(total), keep_percent)[0].sum())
    full_mb = total * dim * 4 / 2**20
    return CompressionStats(
        keep_percent=keep_percent,
        kept_rows=kept,
        total_rows=total,
        embedding_mb_full=full_mb,
        embedding_mb_compressed=kept * dim * 4 / 2**20,
    )


@contextlib.contextmanager
def compressed_embeddings(
    model,
    entity_counts: np.ndarray,
    keep_percent: float,
    rng: np.random.Generator | None = None,
) -> Iterator[CompressionStats]:
    """Temporarily compress a model's entity table (restored on exit).

    ``keep_percent`` is the paper's k: the top k% of entities by
    ``entity_counts`` keep their rows; the rest are replaced by the
    embedding of a randomly chosen unseen entity (or the zero vector if
    every entity was seen).
    """
    if not 0.0 <= keep_percent <= 100.0:
        raise ConfigError(f"keep_percent must be in [0, 100], got {keep_percent}")
    table = _entity_table(model)
    weight = table.weight.data
    counts = np.asarray(entity_counts)
    if counts.shape[0] != weight.shape[0]:
        raise ConfigError(
            f"entity_counts length {counts.shape[0]} does not match table rows "
            f"{weight.shape[0]}"
        )
    stats = compression_stats(model, keep_percent)
    head, replacement = top_k_split(counts, keep_percent, rng)
    embedder = getattr(model, "embedder", None)
    original = weight.copy()
    try:
        weight[~head] = 0.0 if replacement is None else original[replacement]
        # The static payload cache bakes in the entity rows; a stale
        # cache would make compression a silent no-op during eval.
        if embedder is not None:
            embedder.invalidate_static_cache()
        yield stats
    finally:
        weight[...] = original
        if embedder is not None:
            embedder.invalidate_static_cache()
