"""Entity payload construction (Section 3.1).

For each candidate entity the model assembles:

- a learned entity embedding ``u_e`` (all rows identically initialized,
  Appendix B.2), subject to 2-D popularity-scaled masking during
  training (Section 3.3.1);
- a type embedding ``t_e``: additive attention over the entity's (up to
  T) fine-type embeddings, optionally concatenated with the
  mention-level *predicted* coarse type embedding (Appendix A);
- a relation embedding ``r_e``: additive attention over the entity's (up
  to R) relation embeddings;
- optional benchmark-model extras: the word embedding of the entity
  title and a scalar page co-occurrence feature (Appendix B.2).

These are concatenated and fused by an MLP into the entity
representation matrix ``E`` of shape (B, M, K, H).
"""

from __future__ import annotations

import dataclasses

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError
from repro.kb.knowledge_base import KnowledgeBase
from repro.nn.attention import AdditiveAttention, softmax_
from repro.nn.layers import Embedding, Linear, linear
from repro.nn.module import Module
from repro.nn.tensor import (
    Tensor,
    concat,
    get_compute_dtype,
    is_grad_enabled,
    no_grad,
)
from repro.store import DensePayloadStore, EntityPayloadStore

# Rows per chunk when precomputing the static payload cache; bounds the
# peak (chunk, T, dim) intermediate of the attention pooling.
_CACHE_CHUNK = 8192


@dataclasses.dataclass(frozen=True)
class EmbedderConfig:
    """Dimensions and feature switches for the entity payload."""

    hidden_dim: int = 64
    entity_dim: int = 64
    type_dim: int = 32
    relation_dim: int = 32
    max_types: int = 3
    max_relations: int = 4
    use_entity: bool = True
    use_types: bool = True
    use_relations: bool = True
    use_type_prediction: bool = True
    use_title_feature: bool = False
    use_page_feature: bool = False

    def validate(self) -> None:
        if not (self.use_entity or self.use_types or self.use_relations):
            raise ConfigError(
                "at least one of entity/type/relation signals must be enabled"
            )
        if self.use_type_prediction and not self.use_types:
            raise ConfigError("type prediction requires type embeddings")

    @property
    def input_dim(self) -> int:
        dim = 0
        if self.use_entity:
            dim += self.entity_dim
        if self.use_types:
            dim += self.type_dim
            if self.use_type_prediction:
                dim += self.type_dim
        if self.use_relations:
            dim += self.relation_dim
        if self.use_title_feature:
            dim += self.hidden_dim
        if self.use_page_feature:
            dim += 1
        return dim


class EntityEmbedder(Module):
    """Builds E from candidate entity ids plus structural lookups."""

    def __init__(
        self,
        config: EmbedderConfig,
        kb: KnowledgeBase,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        config.validate()
        self.config = config
        self.num_entities = kb.num_entities
        # Static structural lookup matrices (1-shifted ids; 0 = padding).
        self._type_ids = kb.type_id_matrix(config.max_types)
        self._relation_ids = kb.relation_id_matrix(config.max_relations)

        if config.use_entity:
            self.entity_table = Embedding(
                kb.num_entities, config.entity_dim, rng, uniform_init=True
            )
        else:
            self.entity_table = None
        if config.use_types:
            self.type_table = Embedding(kb.num_types + 1, config.type_dim, rng)
            self.type_attention = AdditiveAttention(config.type_dim, rng)
        else:
            self.type_table = None
            self.type_attention = None
        if config.use_relations:
            self.relation_table = Embedding(
                kb.num_relations + 1, config.relation_dim, rng
            )
            self.relation_attention = AdditiveAttention(config.relation_dim, rng)
        else:
            self.relation_table = None
            self.relation_attention = None
        self.fuse = Linear(config.input_dim, config.hidden_dim, rng)
        # Inference fast path: fused payload rows for every entity,
        # precomputed once per model version (see build_static_cache)
        # and served through a pluggable EntityPayloadStore.
        self._payload_store: EntityPayloadStore | None = None

    # ------------------------------------------------------------------
    # Static payload cache (inference fast path)
    # ------------------------------------------------------------------
    def _segment_slices(self) -> dict[str, slice]:
        """Column ranges of ``fuse.weight`` per concatenated input part.

        Must mirror the concat order in :meth:`forward` exactly.
        """
        config = self.config
        segments: dict[str, slice] = {}
        offset = 0

        def take(name: str, width: int) -> None:
            nonlocal offset
            segments[name] = slice(offset, offset + width)
            offset += width

        if config.use_entity:
            take("entity", config.entity_dim)
        if config.use_types:
            take("types", config.type_dim)
            if config.use_type_prediction:
                take("predicted_type", config.type_dim)
        if config.use_relations:
            take("relations", config.relation_dim)
        if config.use_title_feature:
            take("title", config.hidden_dim)
        if config.use_page_feature:
            take("page", 1)
        return segments

    # Any parameter mutation must drop the cache — also when the
    # embedder is used standalone, not just via BootlegModel's
    # overrides (which mutate our parameters without calling these).
    def train(self) -> "EntityEmbedder":
        super().train()
        self.invalidate_static_cache()
        return self

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        self.invalidate_static_cache()

    def to_dtype(self, dtype) -> "EntityEmbedder":
        super().to_dtype(dtype)
        self.invalidate_static_cache()
        return self

    def invalidate_static_cache(self) -> None:
        """Drop the precomputed payload (parameters changed)."""
        if obs.enabled and self._payload_store is not None:
            obs.metrics.counter("entity_cache.invalidations").inc()
        self._payload_store = None

    @property
    def static_cache_ready(self) -> bool:
        return self._payload_store is not None

    @property
    def payload_store(self) -> EntityPayloadStore | None:
        """The store serving payload rows on the inference fast path."""
        return self._payload_store

    def attach_payload_store(self, store: EntityPayloadStore) -> None:
        """Serve payload rows from ``store`` instead of the dense cache."""
        if store.num_rows != self.num_entities:
            raise ConfigError(
                f"payload store has {store.num_rows} rows, "
                f"embedder covers {self.num_entities} entities"
            )
        self._payload_store = store

    def payload_planes(
        self, title_table: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Dense payload planes, (re)built from parameters if needed.

        This is the source material for the non-dense backends: the
        mmap writer streams these rows to disk, the tiered builder
        splits them by popularity.
        """
        store = self._payload_store
        if (
            not isinstance(store, DensePayloadStore)
            or store.dtype != get_compute_dtype()
        ):
            self.build_static_cache(title_table=title_table)
            store = self._payload_store
        return store.export_arrays()

    def build_static_cache(self, title_table: np.ndarray | None = None) -> None:
        """Precompute the sentence-independent payload for every entity.

        ``fuse`` is affine, so the fused payload decomposes into one
        matmul contribution per concatenated part. The entity, type,
        relation and title parts depend only on the entity id; their
        summed contribution (plus the bias) is cached as one contiguous
        ``(num_entities, hidden_dim)`` matrix gathered per batch. The
        mention-dependent parts (predicted type, page feature) are added
        per batch in :meth:`forward_cached`. The entity-embedding
        contribution is kept separately so padded candidate slots can
        subtract it — the affine equivalent of zeroing ``u_e``.
        """
        config = self.config
        dtype = get_compute_dtype()
        weight = self.fuse.weight.data.astype(dtype, copy=False)
        segments = self._segment_slices()
        static = np.zeros((self.num_entities, config.hidden_dim), dtype=dtype)
        static += self.fuse.bias.data.astype(dtype, copy=False)
        entity_part = (
            np.zeros((self.num_entities, config.hidden_dim), dtype=dtype)
            if config.use_entity
            else None
        )
        if config.use_title_feature and title_table is None:
            raise ConfigError("title feature enabled but no title_table given")
        if obs.enabled:
            obs.metrics.counter("entity_cache.rebuild").inc()
        with obs.span("entity_cache.build", entities=self.num_entities), no_grad():
            for start in range(0, self.num_entities, _CACHE_CHUNK):
                ids = np.arange(start, min(start + _CACHE_CHUNK, self.num_entities))
                if config.use_entity:
                    u = self.entity_table.weight.data[ids].astype(dtype, copy=False)
                    contribution = u @ weight[segments["entity"]]
                    entity_part[ids] = contribution
                    static[ids] += contribution
                if config.use_types:
                    t = self.type_payload(ids).data.astype(dtype, copy=False)
                    static[ids] += t @ weight[segments["types"]]
                if config.use_relations:
                    r = self.relation_payload(ids).data.astype(dtype, copy=False)
                    static[ids] += r @ weight[segments["relations"]]
                if config.use_title_feature:
                    titles = title_table[ids].astype(dtype, copy=False)
                    static[ids] += titles @ weight[segments["title"]]
        self._payload_store = DensePayloadStore(static, entity_part)

    def forward_cached(
        self,
        candidate_ids: np.ndarray,
        candidate_mask: np.ndarray,
        predicted_type: Tensor | None = None,
        page_feature: np.ndarray | None = None,
        title_table: np.ndarray | None = None,
    ) -> Tensor:
        """Assemble E by gathering cached static rows (inference only).

        Numerically equivalent to :meth:`forward` with no entity-drop
        mask, up to float summation order (exactly so for the dense
        backend). The dense cache is (re)built lazily when no store is
        attached or when the active compute dtype changed.
        """
        dtype = get_compute_dtype()
        store = self.payload_store
        hit = store is not None and store.dtype == dtype
        if obs.enabled:
            # Touch both counters so exports always carry the pair.
            obs.metrics.counter("entity_cache.hit").inc(1 if hit else 0)
            obs.metrics.counter("entity_cache.miss").inc(0 if hit else 1)
        if not hit:
            self.build_static_cache(title_table=title_table)
            store = self._payload_store
        config = self.config
        safe_ids = np.where(candidate_ids >= 0, candidate_ids, 0)
        out = store.gather(safe_ids)  # (B, M, K, H), fresh array
        if config.use_entity:
            drop = ~candidate_mask
            if drop.any():
                out[drop] -= store.gather_entity_part(safe_ids[drop])
        weight = self.fuse.weight.data
        segments = self._segment_slices()
        if config.use_types and config.use_type_prediction:
            if predicted_type is None:
                raise ConfigError(
                    "embedder configured with type prediction but no "
                    "predicted_type was provided"
                )
            w = weight[segments["predicted_type"]].astype(dtype, copy=False)
            pred = predicted_type.data.astype(dtype, copy=False)
            out += (pred @ w)[:, :, None, :]
        if config.use_page_feature:
            if page_feature is None:
                raise ConfigError("page feature enabled but no page_feature given")
            w = weight[segments["page"]].astype(dtype, copy=False)
            out += page_feature[..., None].astype(dtype, copy=False) * w[0]
        return Tensor(out)

    # ------------------------------------------------------------------
    def type_payload(self, safe_ids: np.ndarray) -> Tensor:
        """Attention-pooled fine-type embedding per candidate (…, type_dim)."""
        type_ids = self._type_ids[safe_ids]  # (..., T)
        embedded = self.type_table(type_ids)  # (..., T, type_dim)
        pad = type_ids == 0
        return self.type_attention(embedded, pad_mask=pad)

    def relation_payload(self, safe_ids: np.ndarray) -> Tensor:
        """Attention-pooled relation embedding per candidate (…, rel_dim)."""
        relation_ids = self._relation_ids[safe_ids]
        embedded = self.relation_table(relation_ids)
        pad = relation_ids == 0
        return self.relation_attention(embedded, pad_mask=pad)

    def forward(
        self,
        candidate_ids: np.ndarray,
        candidate_mask: np.ndarray,
        entity_drop_mask: np.ndarray | None = None,
        predicted_type: Tensor | None = None,
        title_payload: Tensor | None = None,
        page_feature: np.ndarray | None = None,
    ) -> Tensor:
        """Assemble E.

        Parameters
        ----------
        candidate_ids:
            (B, M, K) entity ids with -1 padding.
        candidate_mask:
            (B, M, K) True where valid.
        entity_drop_mask:
            (B, M, K) True where the entity embedding must be zeroed
            (the 2-D regularization mask, sampled by the caller).
        predicted_type:
            (B, M, type_dim) mention-level predicted coarse type
            embedding, broadcast over K.
        title_payload:
            (B, M, K, hidden_dim) title word embeddings.
        page_feature:
            (B, M, K) scalar page co-occurrence counts.
        """
        config = self.config
        safe_ids = np.where(candidate_ids >= 0, candidate_ids, 0)
        parts: list[Tensor] = []
        if config.use_entity:
            u = self.entity_table(safe_ids)  # (B, M, K, ent_dim)
            drop = ~candidate_mask
            if entity_drop_mask is not None:
                drop = drop | entity_drop_mask
            u = u.masked_fill(drop[..., None], 0.0)
            parts.append(u)
        if config.use_types:
            t = self.type_payload(safe_ids)
            parts.append(t)
            if config.use_type_prediction:
                if predicted_type is None:
                    raise ConfigError(
                        "embedder configured with type prediction but no "
                        "predicted_type was provided"
                    )
                b, m, k = safe_ids.shape
                expanded = predicted_type.reshape(b, m, 1, config.type_dim)
                tiled = expanded + Tensor(np.zeros((b, m, k, config.type_dim)))
                parts.append(tiled)
        if config.use_relations:
            parts.append(self.relation_payload(safe_ids))
        if config.use_title_feature:
            if title_payload is None:
                raise ConfigError("title feature enabled but no title_payload given")
            parts.append(title_payload)
        if config.use_page_feature:
            if page_feature is None:
                raise ConfigError("page feature enabled but no page_feature given")
            parts.append(Tensor(page_feature[..., None]))
        fused = self.fuse(concat(parts, axis=-1) if len(parts) > 1 else parts[0])
        return fused


class TypePredictor(Module):
    """Mention-level coarse type prediction (Appendix A).

    From the contextual embeddings of a mention's first and last token,
    predicts a distribution over coarse types; the expected coarse-type
    embedding is fed back into the entity payload.
    """

    def __init__(
        self,
        hidden_dim: int,
        type_dim: int,
        num_coarse_types: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.num_coarse_types = num_coarse_types
        self.classifier = Linear(hidden_dim, num_coarse_types, rng)
        self.coarse_embeddings = Embedding(num_coarse_types, type_dim, rng)

    def forward(
        self, word_states: Tensor, mention_spans: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Return (logits (B, M, C), predicted type embedding (B, M, type_dim)).

        ``word_states`` is W (B, N, H); ``mention_spans`` is (B, M, 2)
        with end-exclusive token spans (padded mentions may carry any
        span; callers mask their loss).
        """
        batch_size, num_mentions, _ = mention_spans.shape
        batch_index = np.repeat(np.arange(batch_size), num_mentions)
        starts = mention_spans[..., 0].reshape(-1)
        ends = np.maximum(mention_spans[..., 1].reshape(-1) - 1, 0)
        type_dim = self.coarse_embeddings.embedding_dim
        if not is_grad_enabled():
            # The graph path's ops on plain arrays, in its order.
            words = word_states.data
            classifier = self.classifier
            logits = linear(
                words[batch_index, starts] + words[batch_index, ends],
                classifier.weight.data,
                classifier.bias.data,
            )
            probs = softmax_(logits.copy())
            predicted = linear(probs, self.coarse_embeddings.weight.data)
            return (
                Tensor(logits.reshape(batch_size, num_mentions, self.num_coarse_types)),
                Tensor(predicted.reshape(batch_size, num_mentions, type_dim)),
            )
        first = word_states[batch_index, starts]
        last = word_states[batch_index, ends]
        mention_vec = first + last  # (B*M, H)
        logits = self.classifier(mention_vec)
        probs = logits.softmax(axis=-1)
        predicted = probs @ self.coarse_embeddings.weight  # (B*M, type_dim)
        return (
            logits.reshape(batch_size, num_mentions, self.num_coarse_types),
            predicted.reshape(batch_size, num_mentions, type_dim),
        )
