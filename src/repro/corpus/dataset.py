"""Model-ready encoding and batching of NED sentences.

Converts :class:`~repro.corpus.document.Sentence` objects into padded
integer arrays: token ids, per-mention candidate lists (the paper's K
candidates from Γ), gold candidate indices, mention spans, and the
per-sentence KG adjacency sub-matrices consumed by ``KG2Ent``.

Evaluation filtering follows Section 4.1: a mention is *evaluable* when
(a) its gold entity is in its candidate set and (b) it has more than one
candidate. Weak-labeled mentions train the model but are excluded from
evaluation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Sequence

import numpy as np

import repro.obs as obs
from repro.corpus.document import Corpus, Mention, Sentence
from repro.corpus.vocab import Vocabulary
from repro.errors import CorpusError
from repro.kb.aliases import CandidateMap
from repro.kb.knowledge_graph import KnowledgeGraph
from repro.nn.loss import IGNORE_INDEX

CANDIDATE_PAD = -1

#: Encoder window: tokens past it are truncated, and so are the mentions
#: that end past it (see :func:`encodable_mentions`).
MAX_TOKENS = 100


def encodable_mentions(
    sentence: Sentence, max_tokens: int = MAX_TOKENS
) -> list[Mention]:
    """The mentions an encoding of ``sentence`` keeps, in order.

    Tokens past ``max_tokens`` are truncated, so only mentions ending
    within the window get candidate arrays and model predictions.
    """
    if len(sentence.tokens) <= max_tokens:
        return sentence.mentions
    return [m for m in sentence.mentions if m.end <= max_tokens]


class CollateBuffers:
    """Reusable padded arrays for :meth:`NedDataset.collate`.

    Batch shapes are stable across an annotation run, so reusing the
    padded arrays avoids reallocating them per batch. Consumers that
    outlive a batch (e.g. prediction records) must copy what they keep —
    :func:`repro.core.trainer.predict_batches` does.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype, fill) -> np.ndarray:
        """Return a ``shape``-sized array filled with ``fill``, reusing
        the previous allocation for ``name`` when the shape matches."""
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != np.dtype(dtype):
            if obs.enabled:
                obs.metrics.counter("collate_buffers.alloc").inc()
            array = np.empty(shape, dtype=dtype)
            self._arrays[name] = array
        elif obs.enabled:
            obs.metrics.counter("collate_buffers.reuse").inc()
        array[...] = fill
        return array


@dataclasses.dataclass
class EncodedSentence:
    """One sentence's arrays (unpadded)."""

    sentence: Sentence
    token_ids: np.ndarray  # (N,)
    candidate_ids: np.ndarray  # (M, K) entity ids, CANDIDATE_PAD for padding
    gold_candidate: np.ndarray  # (M,) index into K, IGNORE_INDEX if gold missing
    gold_entity_ids: np.ndarray  # (M,)
    mention_spans: np.ndarray  # (M, 2) start/end token indices
    is_weak: np.ndarray  # (M,) bool
    evaluable: np.ndarray  # (M,) bool: gold in candidates and ambiguity > 1
    adjacencies: list[np.ndarray]  # per KG: (M*K, M*K)
    page_feature: np.ndarray | None = None  # (M, K) log1p page co-occurrence

    @property
    def num_mentions(self) -> int:
        """Number of mentions in this sentence."""
        return self.candidate_ids.shape[0]

    @property
    def num_tokens(self) -> int:
        """Number of tokens in this sentence."""
        return self.token_ids.shape[0]


@dataclasses.dataclass
class Batch:
    """Padded batch of encoded sentences."""

    token_ids: np.ndarray  # (B, N)
    token_pad_mask: np.ndarray  # (B, N) True at padding
    candidate_ids: np.ndarray  # (B, M, K)
    candidate_mask: np.ndarray  # (B, M, K) True where valid candidate
    mention_mask: np.ndarray  # (B, M) True where real mention
    gold_candidate: np.ndarray  # (B, M)
    gold_entity_ids: np.ndarray  # (B, M) CANDIDATE_PAD at padding
    mention_spans: np.ndarray  # (B, M, 2)
    is_weak: np.ndarray  # (B, M)
    evaluable: np.ndarray  # (B, M)
    adjacencies: list[np.ndarray]  # per KG: (B, M*K, M*K)
    sentences: list[Sentence]
    page_feature: np.ndarray | None = None  # (B, M, K)

    @property
    def size(self) -> int:
        """Number of sentences in the batch."""
        return self.token_ids.shape[0]


class NedDataset:
    """Encoded sentences of one split plus batching utilities."""

    def __init__(
        self,
        corpus: Corpus,
        split: str,
        vocab: Vocabulary,
        candidate_map: CandidateMap,
        num_candidates: int,
        kgs: Sequence[KnowledgeGraph] = (),
        max_tokens: int = MAX_TOKENS,
        page_graph: KnowledgeGraph | None = None,
    ) -> None:
        if num_candidates < 2:
            raise CorpusError("num_candidates must be >= 2")
        self.split = split
        self.vocab = vocab
        self.candidate_map = candidate_map
        self.num_candidates = num_candidates
        self.kgs = list(kgs)
        self.max_tokens = max_tokens
        self.page_graph = page_graph
        self.encoded: list[EncodedSentence] = [
            self._encode(sentence) for sentence in corpus.sentences(split)
        ]
        # Sentences with zero mentions carry no supervision; drop them.
        self.encoded = [e for e in self.encoded if e.num_mentions > 0]

    # ------------------------------------------------------------------
    def _encode(self, sentence: Sentence) -> EncodedSentence:
        tokens = sentence.tokens[: self.max_tokens]
        token_ids = self.vocab.encode(tokens)
        mentions = encodable_mentions(sentence, self.max_tokens)
        num_mentions = len(mentions)
        k = self.num_candidates
        candidate_ids = np.full((num_mentions, k), CANDIDATE_PAD, dtype=np.int64)
        gold_candidate = np.full(num_mentions, IGNORE_INDEX, dtype=np.int64)
        gold_entity_ids = np.zeros(num_mentions, dtype=np.int64)
        spans = np.zeros((num_mentions, 2), dtype=np.int64)
        is_weak = np.zeros(num_mentions, dtype=bool)
        evaluable = np.zeros(num_mentions, dtype=bool)
        for i, mention in enumerate(mentions):
            # Presorted array views from the flat index — the serving
            # hot path builds no per-mention lists or tuples.
            ids, _ = self.candidate_map.candidate_arrays(mention.surface, k)
            candidate_ids[i, : ids.shape[0]] = ids
            gold_entity_ids[i] = mention.gold_entity_id
            spans[i] = (mention.start, mention.end)
            is_weak[i] = mention.is_weak_label
            hits = np.nonzero(ids == mention.gold_entity_id)[0]
            if hits.size:
                gold_candidate[i] = int(hits[0])
                evaluable[i] = ids.shape[0] > 1 and not mention.is_weak_label
        flat = candidate_ids.reshape(-1)
        adjacencies = [
            kg.candidate_adjacency(flat, use_weights=True, pad_id=CANDIDATE_PAD)
            for kg in self.kgs
        ]
        page_feature = None
        if self.page_graph is not None:
            # For candidate (m, k): how many candidates of *other* mentions
            # co-occur on its page (Appendix B.2's statistical feature).
            page_adj = self.page_graph.candidate_adjacency(
                flat, use_weights=True, pad_id=CANDIDATE_PAD
            )
            # Binarize: "appears on the page" is a membership feature.
            page_adj = (page_adj > 0).astype(np.float64)
            counts_all = page_adj.sum(axis=1)
            # Remove within-mention counts: a mention's own candidates are
            # alternatives, not sentence context.
            within = np.zeros_like(counts_all)
            for m in range(num_mentions):
                block = page_adj[m * k : (m + 1) * k, m * k : (m + 1) * k]
                within[m * k : (m + 1) * k] = block.sum(axis=1)
            page_feature = np.log1p(
                (counts_all - within).reshape(num_mentions, k)
            )
        return EncodedSentence(
            sentence=sentence,
            token_ids=token_ids,
            candidate_ids=candidate_ids,
            gold_candidate=gold_candidate,
            gold_entity_ids=gold_entity_ids,
            mention_spans=spans,
            is_weak=is_weak,
            evaluable=evaluable,
            adjacencies=adjacencies,
            page_feature=page_feature,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.encoded)

    def __getitem__(self, index: int) -> EncodedSentence:
        return self.encoded[index]

    def collate(
        self,
        items: Sequence[EncodedSentence],
        buffers: CollateBuffers | None = None,
    ) -> Batch:
        """Pad a list of encoded sentences into one batch.

        With ``buffers``, padded arrays are recycled across calls; the
        returned batch is then only valid until the next collate call
        with the same buffers.
        """
        if not items:
            raise CorpusError("cannot collate an empty batch")
        if buffers is None:
            buffers = CollateBuffers()
        batch_size = len(items)
        k = self.num_candidates
        max_tokens = max(item.num_tokens for item in items)
        max_mentions = max(item.num_mentions for item in items)
        pad_id = self.vocab.pad_id

        token_ids = buffers.take(
            "token_ids", (batch_size, max_tokens), np.int64, pad_id
        )
        token_pad_mask = buffers.take(
            "token_pad_mask", (batch_size, max_tokens), bool, True
        )
        candidate_ids = buffers.take(
            "candidate_ids", (batch_size, max_mentions, k), np.int64, CANDIDATE_PAD
        )
        mention_mask = buffers.take(
            "mention_mask", (batch_size, max_mentions), bool, False
        )
        gold_candidate = buffers.take(
            "gold_candidate", (batch_size, max_mentions), np.int64, IGNORE_INDEX
        )
        gold_entity_ids = buffers.take(
            "gold_entity_ids", (batch_size, max_mentions), np.int64, CANDIDATE_PAD
        )
        spans = buffers.take(
            "mention_spans", (batch_size, max_mentions, 2), np.int64, 0
        )
        is_weak = buffers.take("is_weak", (batch_size, max_mentions), bool, False)
        evaluable = buffers.take(
            "evaluable", (batch_size, max_mentions), bool, False
        )
        flat_dim = max_mentions * k
        adjacencies = [
            buffers.take(
                f"adjacency_{i}", (batch_size, flat_dim, flat_dim), np.float64, 0.0
            )
            for i in range(len(self.kgs))
        ]
        page_feature = (
            buffers.take(
                "page_feature", (batch_size, max_mentions, k), np.float64, 0.0
            )
            if self.page_graph is not None
            else None
        )
        for b, item in enumerate(items):
            n, m = item.num_tokens, item.num_mentions
            token_ids[b, :n] = item.token_ids
            token_pad_mask[b, :n] = False
            candidate_ids[b, :m] = item.candidate_ids
            mention_mask[b, :m] = True
            gold_candidate[b, :m] = item.gold_candidate
            gold_entity_ids[b, :m] = item.gold_entity_ids
            spans[b, :m] = item.mention_spans
            is_weak[b, :m] = item.is_weak
            evaluable[b, :m] = item.evaluable
            for kg_index, adjacency in enumerate(item.adjacencies):
                size = m * k
                adjacencies[kg_index][b, :size, :size] = adjacency
            if page_feature is not None and item.page_feature is not None:
                page_feature[b, :m] = item.page_feature
        return Batch(
            token_ids=token_ids,
            token_pad_mask=token_pad_mask,
            candidate_ids=candidate_ids,
            candidate_mask=candidate_ids != CANDIDATE_PAD,
            mention_mask=mention_mask,
            gold_candidate=gold_candidate,
            gold_entity_ids=gold_entity_ids,
            mention_spans=spans,
            is_weak=is_weak,
            evaluable=evaluable,
            adjacencies=adjacencies,
            sentences=[item.sentence for item in items],
            page_feature=page_feature,
        )

    def batches(
        self,
        batch_size: int,
        rng: np.random.Generator | None = None,
        buffers: CollateBuffers | None = None,
    ) -> Iterator[Batch]:
        """Yield batches; shuffled when ``rng`` is given.

        ``buffers`` recycles padded arrays across batches; each yielded
        batch is then invalidated by the next iteration step.
        """
        if batch_size < 1:
            raise CorpusError("batch_size must be >= 1")
        order = np.arange(len(self.encoded))
        if rng is not None:
            rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = [self.encoded[int(i)] for i in order[start : start + batch_size]]
            yield self.collate(chunk, buffers=buffers)

    # ------------------------------------------------------------------
    def evaluable_mention_count(self) -> int:
        """Total evaluable mentions across the dataset."""
        return int(sum(item.evaluable.sum() for item in self.encoded))

    def gold_recall(self) -> float:
        """Fraction of anchor mentions whose gold entity is in the
        candidate list (candidate-generation recall)."""
        total, hit = 0, 0
        for item in self.encoded:
            anchors = ~item.is_weak
            total += int(anchors.sum())
            hit += int((anchors & (item.gold_candidate != IGNORE_INDEX)).sum())
        return hit / total if total else 0.0


def build_vocabulary(corpus: Corpus, min_count: int = 1) -> Vocabulary:
    """Vocabulary over all corpus tokens (train + eval, like a fixed
    wordpiece vocab that covers evaluation text)."""
    return Vocabulary.build(corpus.iter_tokens(), min_count=min_count)
