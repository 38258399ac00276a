"""The Bootleg disambiguation model (Section 3).

Per layer:  ``E' = Phrase2Ent(E, W) + Ent2Ent(E)`` and, per KG module j,
``E_k^j = softmax(K_j + w·I) E' + E'``. Multiple KG outputs are averaged
to form the next layer's input. After the final layer each branch is
scored with the learned vector ``v`` and the final candidate score is
the elementwise max over branches — the ensemble scoring of Section 3.2.

A mention-level coarse-type prediction head (Appendix A) supplies a
predicted type embedding to the entity payload and adds an auxiliary
loss; mention positional encodings (first/last token, projected) are
added to E before the first layer.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.corpus.dataset import Batch
from repro.corpus.vocab import Vocabulary
from repro.errors import ConfigError
from repro.kb.knowledge_base import KnowledgeBase
from repro.core.embeddings import EmbedderConfig, EntityEmbedder, TypePredictor
from repro.core.modules import Ent2Ent, KG2Ent, Phrase2Ent
from repro.core.regularization import RegularizationScheme, make_scheme
from repro.nn.attention import NEG_INF
from repro.nn.layers import Linear, linear
from repro.nn.loss import IGNORE_INDEX, cross_entropy
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_compute_dtype, is_grad_enabled, stack
from repro.nn.transformer import sinusoidal_position_encoding
from repro.text.encoder import MiniBert


@dataclasses.dataclass(frozen=True)
class BootlegConfig:
    """Hyper-parameters and ablation switches for Bootleg."""

    hidden_dim: int = 64
    entity_dim: int = 64
    type_dim: int = 32
    relation_dim: int = 32
    num_heads: int = 4
    num_layers: int = 1
    encoder_layers: int = 2
    dropout: float = 0.1
    num_candidates: int = 6
    max_types: int = 3
    max_relations: int = 4
    max_len: int = 160
    # Signal ablations (Table 2 / Table 9).
    use_entity: bool = True
    use_types: bool = True
    use_relations: bool = True
    num_kg_modules: int = 1
    # Architecture switches (Appendix A + our extra ablations).
    use_type_prediction: bool = True
    use_position_encoding: bool = True
    use_ensemble_scoring: bool = True
    kg_use_skip: bool = True
    kg_learn_self_weight: bool = True
    # Benchmark-model extras (Appendix B.2).
    use_title_feature: bool = False
    use_page_feature: bool = False
    # Entity regularization (Section 3.3.1). max_count anchors the curve's
    # low end (p = 0.05 at that count); 0 means "calibrate to the observed
    # maximum training count" — the paper's 10,000 assumes Wikipedia scale.
    regularization: str = "inv_pop_pow"
    regularization_value: float = 0.0
    regularization_max_count: int = 0
    freeze_encoder: bool = False
    type_loss_weight: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_layers < 1:
            raise ConfigError("need at least one Bootleg layer")
        if self.num_kg_modules < 0:
            raise ConfigError("num_kg_modules must be >= 0")
        if self.num_kg_modules > 0 and not self.use_relations and not (
            self.use_entity or self.use_types
        ):
            raise ConfigError("KG modules need some entity payload")

    def embedder_config(self) -> EmbedderConfig:
        return EmbedderConfig(
            hidden_dim=self.hidden_dim,
            entity_dim=self.entity_dim,
            type_dim=self.type_dim,
            relation_dim=self.relation_dim,
            max_types=self.max_types,
            max_relations=self.max_relations,
            use_entity=self.use_entity,
            use_types=self.use_types,
            use_relations=self.use_relations,
            use_type_prediction=self.use_type_prediction and self.use_types,
            use_title_feature=self.use_title_feature,
            use_page_feature=self.use_page_feature,
        )


# Named ablation presets (Table 2): overrides applied on top of a base
# BootlegConfig. Lives here (not in the CLI) so library consumers — the
# model-graph verifier included — can resolve presets without importing
# the command-line layer.
MODEL_PRESETS: dict[str, dict] = {
    "bootleg": {},
    "ent-only": {
        "use_types": False,
        "use_relations": False,
        "num_kg_modules": 0,
        "use_type_prediction": False,
    },
    "type-only": {
        "use_entity": False,
        "use_relations": False,
        "num_kg_modules": 0,
    },
    "kg-only": {
        "use_entity": False,
        "use_types": False,
        "use_type_prediction": False,
    },
}


@dataclasses.dataclass
class BootlegOutput:
    """Forward-pass results."""

    scores: Tensor  # (B, M, K) masked candidate scores
    type_logits: Tensor | None  # (B, M, C) or None
    contextual_entities: Tensor  # (B, M, K, H) final entity representations


class BootlegModel(Module):
    """End-to-end Bootleg: encoder + payload + attention stack + scoring."""

    def __init__(
        self,
        config: BootlegConfig,
        kb: KnowledgeBase,
        vocab: Vocabulary,
        entity_counts: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        config.validate()
        self.config = config
        self.kb = kb
        self.vocab = vocab
        rng = rng or np.random.default_rng(
            np.random.SeedSequence([config.seed, 424238335])
        )
        self._rng = rng
        self.encoder = MiniBert(
            vocab_size=len(vocab),
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            num_layers=config.encoder_layers,
            rng=rng,
            dropout=config.dropout,
            max_len=config.max_len,
        )
        if config.freeze_encoder:
            self.encoder.freeze()
        self.embedder = EntityEmbedder(config.embedder_config(), kb, rng)
        use_type_prediction = config.use_type_prediction and config.use_types
        if use_type_prediction:
            self.type_predictor = TypePredictor(
                config.hidden_dim, config.type_dim, kb.num_coarse_types, rng
            )
            self._coarse_type_ids = kb.coarse_type_ids()
        else:
            self.type_predictor = None
            self._coarse_type_ids = None
        if config.use_position_encoding:
            self.position_proj = Linear(2 * config.hidden_dim, config.hidden_dim, rng)
            self._position_table = sinusoidal_position_encoding(
                config.max_len, config.hidden_dim
            )
        else:
            self.position_proj = None
        self.phrase2ent = [
            Phrase2Ent(config.hidden_dim, config.num_heads, rng, config.dropout)
            for _ in range(config.num_layers)
        ]
        self.ent2ent = [
            Ent2Ent(config.hidden_dim, config.num_heads, rng, config.dropout)
            for _ in range(config.num_layers)
        ]
        self.kg2ent = [
            [
                KG2Ent(
                    use_skip=config.kg_use_skip,
                    learn_self_weight=config.kg_learn_self_weight,
                )
                for _ in range(config.num_kg_modules)
            ]
            for _ in range(config.num_layers)
        ]
        self.score_vector = Parameter(rng.normal(0.0, 0.02, size=config.hidden_dim))
        # Title tokens per entity (benchmark feature): vocab lookup of titles.
        if config.use_title_feature:
            self._title_token_ids = np.array(
                [vocab.encode_token(e.title) for e in kb.entities()], dtype=np.int64
            )
        else:
            self._title_token_ids = None
        # Entity masking probabilities (set via set_entity_counts).
        self._scheme: RegularizationScheme | None = None
        if config.regularization_max_count > 0:
            self._scheme = make_scheme(
                config.regularization,
                value=config.regularization_value,
                max_count=config.regularization_max_count,
            )
        if entity_counts is not None:
            self.set_entity_counts(entity_counts)
        else:
            self._mask_probs = np.zeros(kb.num_entities)
        # Inference fast path: gather precomputed static entity payloads
        # instead of re-fusing them every forward (eval + no_grad only).
        self.payload_cache_enabled = True

    # ------------------------------------------------------------------
    # Payload-cache lifecycle: any parameter mutation invalidates it.
    # ------------------------------------------------------------------
    def train(self) -> "BootlegModel":
        super().train()
        self.embedder.invalidate_static_cache()
        return self

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self.embedder.invalidate_static_cache()

    def to_dtype(self, dtype) -> "BootlegModel":
        super().to_dtype(dtype)
        self.embedder.invalidate_static_cache()
        return self

    def _title_table(self) -> np.ndarray:
        """Per-entity title word embedding rows (num_entities, H)."""
        return self.encoder.token_embedding.weight.data[self._title_token_ids]

    # ------------------------------------------------------------------
    def set_entity_counts(self, counts: np.ndarray) -> None:
        """Install per-entity training counts for the p(e) scheme."""
        counts = np.asarray(counts)
        if counts.shape != (self.kb.num_entities,):
            raise ConfigError(
                f"entity counts must have shape ({self.kb.num_entities},), "
                f"got {counts.shape}"
            )
        scheme = self._scheme
        if scheme is None:
            # Auto-calibrate the curve's low anchor to the observed scale.
            scheme = make_scheme(
                self.config.regularization,
                value=self.config.regularization_value,
                max_count=max(2, int(counts.max())),
            )
            self._scheme = scheme
        self._mask_probs = scheme.probabilities(counts)

    @property
    def mask_probabilities(self) -> np.ndarray:
        return self._mask_probs

    def _sample_entity_drop(self, candidate_ids: np.ndarray) -> np.ndarray | None:
        """2-D regularization mask: True where u_e is zeroed this step."""
        if not self.training or not self.config.use_entity:
            return None
        safe = np.where(candidate_ids >= 0, candidate_ids, 0)
        probs = self._mask_probs[safe]
        return self._rng.random(candidate_ids.shape) < probs

    def _position_features(self, spans: np.ndarray) -> np.ndarray:
        """Position-table rows of each mention's first and last token,
        concatenated (B, M, 2H)."""
        # Rows start and end - 1; mode="clip" clamps them into the table.
        rows = self._position_table.take(spans - (0, 1), axis=0, mode="clip")
        return rows.reshape(*spans.shape[:-1], 2 * self.config.hidden_dim)

    def _title_payload(self, candidate_ids: np.ndarray) -> Tensor:
        safe = np.where(candidate_ids >= 0, candidate_ids, 0)
        title_tokens = self._title_token_ids[safe]  # (B, M, K)
        payload = self.encoder.token_embedding(title_tokens)
        return payload.detach() if self.encoder.frozen else payload

    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> BootlegOutput:
        config = self.config
        batch_size, num_mentions, k = batch.candidate_ids.shape
        grad = is_grad_enabled()
        token_pad_mask = batch.token_pad_mask
        if not grad and not token_pad_mask.any():
            # A key mask that masks nothing (a one-document batch has no
            # padded tokens) is dropped here once, not applied per block.
            token_pad_mask = None
        words = self.encoder(batch.token_ids, pad_mask=token_pad_mask)

        type_logits = None
        predicted_type = None
        if self.type_predictor is not None:
            type_logits, predicted_type = self.type_predictor(
                words, batch.mention_spans
            )

        page_feature = getattr(batch, "page_feature", None)
        if config.use_page_feature and page_feature is None:
            raise ConfigError("model expects page_feature on the batch")

        use_cache = self.payload_cache_enabled and not self.training and not grad
        if use_cache:
            entities = self.embedder.forward_cached(
                batch.candidate_ids,
                batch.candidate_mask,
                predicted_type=predicted_type,
                page_feature=page_feature if config.use_page_feature else None,
                title_table=self._title_table() if config.use_title_feature else None,
            )  # (B, M, K, H)
        else:
            title_payload = None
            if config.use_title_feature:
                title_payload = self._title_payload(batch.candidate_ids)
            entities = self.embedder(
                batch.candidate_ids,
                batch.candidate_mask,
                entity_drop_mask=self._sample_entity_drop(batch.candidate_ids),
                predicted_type=predicted_type,
                title_payload=title_payload,
                page_feature=page_feature if config.use_page_feature else None,
            )  # (B, M, K, H)

        adjacencies = batch.adjacencies[: config.num_kg_modules]
        if config.num_kg_modules > 0 and len(adjacencies) < config.num_kg_modules:
            raise ConfigError(
                f"model expects {config.num_kg_modules} adjacency matrices, "
                f"batch has {len(adjacencies)}"
            )
        if not grad:
            return self._forward_arrays(
                batch, words, entities, type_logits, token_pad_mask, adjacencies
            )

        if self.position_proj is not None:
            features = Tensor(self._position_features(batch.mention_spans))
            position = self.position_proj(features)  # (B, M, H)
            entities = entities + position.reshape(
                batch_size, num_mentions, 1, config.hidden_dim
            )

        flat = entities.reshape(batch_size, num_mentions * k, config.hidden_dim)
        candidate_pad = ~batch.candidate_mask.reshape(batch_size, num_mentions * k)

        ensemble: list[Tensor] = []
        current = flat
        for layer in range(config.num_layers):
            phrase = self.phrase2ent[layer](
                current, words, word_pad_mask=batch.token_pad_mask
            )
            cooc = self.ent2ent[layer](current, candidate_pad_mask=candidate_pad)
            e_prime = phrase + cooc
            kg_outputs = [
                module(e_prime, adjacencies[j], candidate_pad_mask=candidate_pad)
                for j, module in enumerate(self.kg2ent[layer])
            ]
            if layer == config.num_layers - 1:
                ensemble = [e_prime, *kg_outputs]
            if kg_outputs:
                if len(kg_outputs) == 1:
                    current = kg_outputs[0]
                else:
                    current = stack(kg_outputs, axis=0).mean(axis=0)
            else:
                current = e_prime

        if not config.use_ensemble_scoring:
            ensemble = [current]
        branch_scores = [branch @ self.score_vector for branch in ensemble]
        if len(branch_scores) == 1:
            flat_scores = branch_scores[0]
        else:
            flat_scores = stack(branch_scores, axis=0).max(axis=0)
        scores = flat_scores.reshape(batch_size, num_mentions, k)
        scores = scores.masked_fill(~batch.candidate_mask, NEG_INF)
        return BootlegOutput(
            scores=scores,
            type_logits=type_logits,
            contextual_entities=current.reshape(
                batch_size, num_mentions, k, config.hidden_dim
            ),
        )

    def _forward_arrays(
        self,
        batch: Batch,
        words: Tensor,
        entities: Tensor,
        type_logits: Tensor | None,
        token_pad_mask: np.ndarray | None,
        adjacencies: list[np.ndarray],
    ) -> BootlegOutput:
        """The rest of :meth:`forward` under ``no_grad``, on plain arrays.

        The graph path's ops in its order and compute-dtype roundings, so
        every output is bitwise equal to it. The Phrase2Ent, Ent2Ent and
        KG2Ent calls still take and return Tensors.
        """
        config = self.config
        batch_size, num_mentions, k = batch.candidate_ids.shape
        hidden = config.hidden_dim
        payload = entities.data
        if self.position_proj is not None:
            features = self._position_features(batch.mention_spans)
            position = linear(
                features.astype(get_compute_dtype(), copy=False),
                self.position_proj.weight.data,
                self.position_proj.bias.data,
            )  # (B, M, H)
            payload = payload + position[:, :, None, :]
        current = Tensor(payload.reshape(batch_size, num_mentions * k, hidden))
        candidate_pad = ~batch.candidate_mask.reshape(batch_size, num_mentions * k)

        ensemble: list[Tensor] = []
        for layer in range(config.num_layers):
            phrase = self.phrase2ent[layer](
                current, words, word_pad_mask=token_pad_mask
            )
            cooc = self.ent2ent[layer](current, candidate_pad_mask=candidate_pad)
            e_prime = Tensor(phrase.data + cooc.data)
            kg_outputs = [
                module(e_prime, adjacencies[j], candidate_pad_mask=candidate_pad)
                for j, module in enumerate(self.kg2ent[layer])
            ]
            if layer == config.num_layers - 1:
                ensemble = [e_prime, *kg_outputs]
            if len(kg_outputs) > 1:
                # Tensor.mean's ops: the sum times 1/n, not numpy's mean.
                stacked = np.stack([output.data for output in kg_outputs])
                current = Tensor(stacked.sum(axis=0) * (1.0 / len(kg_outputs)))
            else:
                current = kg_outputs[0] if kg_outputs else e_prime

        if not config.use_ensemble_scoring:
            ensemble = [current]
        branch_scores = [
            linear(branch.data, self.score_vector.data) for branch in ensemble
        ]
        if len(branch_scores) == 1:
            flat_scores = branch_scores[0]
        else:
            flat_scores = np.stack(branch_scores).max(axis=0)
        scores = flat_scores.reshape(batch_size, num_mentions, k)
        np.copyto(scores, NEG_INF, where=~batch.candidate_mask)
        return BootlegOutput(
            scores=Tensor(scores),
            type_logits=type_logits,
            contextual_entities=Tensor(
                current.data.reshape(batch_size, num_mentions, k, hidden)
            ),
        )

    # ------------------------------------------------------------------
    def loss(self, batch: Batch, output: BootlegOutput) -> Tensor:
        """L_dis + type_loss_weight * L_type (Appendix A)."""
        targets = np.where(batch.mention_mask, batch.gold_candidate, IGNORE_INDEX)
        total = cross_entropy(output.scores, targets)
        if output.type_logits is not None:
            coarse_targets = self._coarse_gold_targets(batch)
            total = total + cross_entropy(output.type_logits, coarse_targets) * (
                self.config.type_loss_weight
            )
        return total

    def _coarse_gold_targets(self, batch: Batch) -> np.ndarray:
        """Coarse type of the gold entity per mention (IGNORE at padding)."""
        gold = batch.gold_entity_ids
        safe = np.where(gold >= 0, gold, 0)
        coarse = self._coarse_type_ids[safe]
        supervised = batch.mention_mask & (gold >= 0) & (
            batch.gold_candidate != IGNORE_INDEX
        )
        return np.where(supervised, coarse, IGNORE_INDEX)

    def predictions(self, batch: Batch, output: BootlegOutput) -> np.ndarray:
        """Predicted entity id per mention, (B, M), -1 at padding."""
        best = output.scores.data.argmax(axis=-1)  # (B, M)
        b_index = np.arange(best.shape[0])[:, None]
        m_index = np.arange(best.shape[1])[None, :]
        predicted = batch.candidate_ids[b_index, m_index, best]
        return np.where(batch.mention_mask, predicted, -1)
