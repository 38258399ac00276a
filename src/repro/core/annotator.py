"""End-user inference API: disambiguate mentions in free text.

This is the "open-source system" surface of Bootleg: given a trained
model and raw text, detect mentions (known aliases from Γ) or accept
user-provided spans, and return the most likely entity per mention.

Serving throughput comes from three things here: a token-keyed alias
index built once at construction (mention detection probes one dict
bucket per token instead of string-joining every span), a batched
``annotate_batch`` that packs many documents, sorted by shape, into
shared :class:`NedDataset` batches (:meth:`BootlegAnnotator.plan`), and
collation buffers reused across calls.

One routine turns mentions into linking decisions: tier 0 first when a
cascade policy is set, then the model over the sentences that still
need it. ``annotate_batch`` and :meth:`BootlegAnnotator.predict_sentences`
(what ``repro evaluate`` scores) both format its outcomes, so the
evaluated decisions are the annotated ones.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

import numpy as np

import repro.obs as obs
from repro.cascade import (
    REASON_TYPE_VETO,
    TIER_HEURISTIC,
    TIER_MODEL,
    CascadePolicy,
    Tier0Decision,
    Tier0Linker,
    reason_counts,
    record_cascade_metrics,
)
from repro.core.trainer import predict_batches
from repro.obs import provenance
from repro.corpus.dataset import (
    CANDIDATE_PAD,
    MAX_TOKENS,
    CollateBuffers,
    NedDataset,
    encodable_mentions,
)
from repro.corpus.document import Corpus, Mention, Page, Sentence
from repro.corpus.tokenizer import tokenize
from repro.corpus.vocab import Vocabulary
from repro.errors import ConfigError, CorpusError
from repro.eval.predictions import MentionPrediction
from repro.kb.aliases import CandidateMap, normalize_alias
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.knowledge_graph import KnowledgeGraph


@dataclasses.dataclass
class AnnotatedMention:
    """One disambiguated mention in user text."""

    start: int  # token index, inclusive
    end: int  # token index, exclusive
    surface: str
    entity_id: int
    entity_title: str
    score: float
    candidates: list[tuple[str, float]]  # (title, score), best first
    # Which cascade tier answered ("model" without a cascade policy).
    tier: str = TIER_MODEL


class BootlegAnnotator:
    """Batched free-text disambiguation over a trained model."""

    def __init__(
        self,
        model,
        vocab: Vocabulary,
        candidate_map: CandidateMap,
        kb: KnowledgeBase,
        kgs: list[KnowledgeGraph] | None = None,
        num_candidates: int = 6,
        max_alias_tokens: int = 3,
        batch_size: int = 32,
        cascade: CascadePolicy | None = None,
    ) -> None:
        self.model = model
        self.vocab = vocab
        self.candidate_map = candidate_map
        self.kb = kb
        self.kgs = kgs or []
        self.num_candidates = num_candidates
        self.max_alias_tokens = max_alias_tokens
        self.batch_size = batch_size
        self.cascade = cascade
        self._tier0 = (
            Tier0Linker(
                candidate_map, cascade, kb=kb, num_candidates=num_candidates
            )
            if cascade is not None
            else None
        )
        self._collate_buffers = CollateBuffers()
        self._alias_index = self._build_alias_index()

    # ------------------------------------------------------------------
    def _build_alias_index(self) -> dict[str, list[tuple[str, ...]]]:
        """First-token → alias token tuples, longest first.

        Aliases in Γ are already normalized (lowercase, collapsed
        whitespace), and the tokenizer lowercases, so token tuples match
        exactly. Call :meth:`refresh_alias_index` after mutating the
        candidate map.
        """
        index: dict[str, list[tuple[str, ...]]] = {}
        for alias in self.candidate_map.aliases():
            alias_tokens = tuple(alias.split())
            if not alias_tokens or len(alias_tokens) > self.max_alias_tokens:
                continue
            index.setdefault(alias_tokens[0], []).append(alias_tokens)
        for bucket in index.values():
            bucket.sort(key=len, reverse=True)
        return index

    def refresh_alias_index(self) -> None:
        """Rebuild the detection index after the candidate map changed."""
        self._alias_index = self._build_alias_index()
        if self.cascade is not None:
            # The tier-0 decision cache snapshots the candidate map too.
            self._tier0 = Tier0Linker(
                self.candidate_map,
                self.cascade,
                kb=self.kb,
                num_candidates=self.num_candidates,
            )

    def detect_mentions(self, tokens: list[str]) -> list[tuple[int, int]]:
        """Greedy longest-match detection of known aliases (left to right)."""
        spans: list[tuple[int, int]] = []
        lowered = [normalize_alias(token) for token in tokens]
        num_tokens = len(tokens)
        position = 0
        while position < num_tokens:
            matched_end = 0
            for alias_tokens in self._alias_index.get(lowered[position], ()):
                end = position + len(alias_tokens)
                if end <= num_tokens and tuple(lowered[position:end]) == alias_tokens:
                    matched_end = end
                    break
            if matched_end:
                spans.append((position, matched_end))
                position = matched_end
            else:
                position += 1
        return spans

    # ------------------------------------------------------------------
    def annotate(
        self,
        text: str,
        mention_spans: list[tuple[int, int]] | None = None,
    ) -> list[AnnotatedMention]:
        """Disambiguate ``text``; spans are token-index pairs (end exclusive)."""
        return self.annotate_batch([text], [mention_spans])[0]

    def annotate_batch(
        self,
        texts: Sequence[str],
        mention_spans: Sequence[list[tuple[int, int]] | None] | None = None,
        sentence_ids: Sequence[int] | None = None,
    ) -> list[list[AnnotatedMention]]:
        """Disambiguate many documents in shared model batches.

        ``mention_spans`` optionally supplies spans per document (None
        entries fall back to detection). Returns one annotation list per
        input text, in order — equal, mention for mention, to calling
        :meth:`annotate` per text, but with one dataset build and packed
        batches instead of a model call per document.

        ``sentence_ids`` (default: each text's index) key the
        documents' provenance records. A pool passes each task's
        call-global ids, in input order.
        """
        if not texts:
            # No documents: check the span and id counts, but skip the
            # span and the batch-latency metrics entirely so empty
            # probes don't pollute serving telemetry.
            self.parse(texts, mention_spans, sentence_ids)
            return []
        with obs.span("annotator.annotate_batch", documents=len(texts)):
            return self._annotate_batch(
                self.parse(texts, mention_spans, sentence_ids)
            )

    def parse(
        self,
        texts: Sequence[str],
        mention_spans: Sequence[list[tuple[int, int]] | None] | None = None,
        sentence_ids: Sequence[int] | None = None,
    ) -> list[Sentence]:
        """One :class:`Sentence` per text: its tokens and mentions.

        Spans come from ``mention_spans`` where given, else from
        :meth:`detect_mentions`. Raises :class:`ConfigError` on an
        empty text, an out-of-range or overlapping span, or a span or
        id list whose length differs from ``texts``. Records nothing.
        """
        for name, values in (
            ("mention_spans", mention_spans),
            ("sentence_ids", sentence_ids),
        ):
            if values is not None and len(values) != len(texts):
                raise ConfigError(
                    f"{name} has {len(values)} entries for {len(texts)} texts"
                )
        sentences: list[Sentence] = []
        for doc_index, text in enumerate(texts):
            tokens = tokenize(text)
            if not tokens:
                raise ConfigError("cannot annotate empty text")
            spans = mention_spans[doc_index] if mention_spans is not None else None
            if spans is None:
                spans = self.detect_mentions(tokens)
            mentions = []
            for start, end in spans:
                if not 0 <= start < end <= len(tokens):
                    raise ConfigError(f"invalid mention span ({start}, {end})")
                surface = " ".join(tokens[start:end])
                # Gold is unknown at inference: CANDIDATE_PAD matches no
                # candidate and keeps a gold id out of provenance.
                mentions.append(Mention(start, end, surface, CANDIDATE_PAD))
            sentence_id = (
                sentence_ids[doc_index] if sentence_ids is not None else doc_index
            )
            try:
                # The sentence id keys the mention's provenance record.
                sentences.append(Sentence(sentence_id, 0, tokens, mentions))
            except CorpusError as error:  # overlapping spans
                raise ConfigError(f"invalid mention spans: {error}") from error
        return sentences

    def _annotate_batch(
        self, sentences: list[Sentence]
    ) -> list[list[AnnotatedMention]]:
        observing = obs.enabled
        num_detected = sum(len(sentence.mentions) for sentence in sentences)
        if observing:
            obs.metrics.counter("annotator.documents").inc(len(sentences))
            obs.metrics.counter("annotator.mentions_detected").inc(num_detected)
        results: list[list[AnnotatedMention]] = [[] for _ in sentences]
        if not num_detected:
            return results
        covered = 0
        for annotations, (mentions, outcomes) in zip(
            results, self._decide(sentences)
        ):
            for mention, outcome in zip(mentions, outcomes):
                if isinstance(outcome, Tier0Decision):
                    if outcome.entity_id >= 0:
                        covered += 1
                        annotations.append(
                            self._mention_from_decision(outcome, mention)
                        )
                    continue
                if int((outcome.candidate_ids >= 0).sum()) > 0:
                    covered += 1
                if outcome.predicted_entity_id >= 0:
                    annotations.append(self._mention_from_record(outcome, mention))
        if observing:
            # Candidate coverage: fraction of detected mentions for which
            # the candidate map yielded at least one candidate entity.
            obs.metrics.counter("annotator.mentions_covered").inc(covered)
            obs.metrics.gauge("annotator.candidate_coverage").set(
                covered / num_detected
            )
            obs.metrics.counter("annotator.mentions_annotated").inc(
                sum(len(annotations) for annotations in results)
            )
        return results

    def predict_sentences(
        self, sentences: Sequence[Sentence]
    ) -> list[MentionPrediction]:
        """Prediction records for labelled sentences (``repro evaluate``).

        One record per encodable mention, in sentence then mention
        order (the order :func:`repro.core.trainer.predict` yields),
        each attributed to its ``tier``. Tier-0 answers are padded into
        the model's ``(K,)`` candidate arrays. A pool's
        ``predict_sentences`` runs this call on its workers.
        """
        records: list[MentionPrediction] = []
        for sentence, (mentions, outcomes) in zip(
            sentences, self._decide(sentences)
        ):
            for index, (mention, outcome) in enumerate(zip(mentions, outcomes)):
                if isinstance(outcome, Tier0Decision):
                    outcome = self._tier0_record(sentence, index, mention, outcome)
                records.append(outcome)
        return records

    def plan(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        """The batch plan: the indices of the sentences each model batch holds.

        A sentence reaches the model when it keeps an encodable mention
        and, under a cascade policy, tier 0 abstains on one of them.
        Those sentences are sorted stably by (encodable mention count,
        token count capped at ``MAX_TOKENS``) and cut into
        ``batch_size`` batches, so a padded batch holds sentences of
        like shape. Records no metrics and no provenance.

        Whole planned batches, listed in input order among sentences
        that no batch holds, re-plan to exactly those batches: their
        sentences sort back into the same runs, and every batch but the
        last is full. A pool relies on this to run the serial plan's
        batches on its workers.
        """
        mentions_per_sentence = [encodable_mentions(s) for s in sentences]
        return self._plan(
            sentences,
            mentions_per_sentence,
            self._resolve_tier0(mentions_per_sentence),
        )

    def _resolve_tier0(
        self, mentions_per_sentence: list[list[Mention]]
    ) -> list[list[Tier0Decision]] | None:
        """Tier 0's cached decision per kept mention; None without a policy."""
        if self._tier0 is None:
            return None
        resolve = self._tier0.resolve
        return [
            [resolve(mention.surface) for mention in mentions]
            for mentions in mentions_per_sentence
        ]

    def _plan(
        self,
        sentences: Sequence[Sentence],
        mentions_per_sentence: list[list[Mention]],
        decisions_per_sentence: list[list[Tier0Decision]] | None,
    ) -> list[list[int]]:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        bound = [
            index
            for index, mentions in enumerate(mentions_per_sentence)
            if mentions
            and (
                decisions_per_sentence is None
                or not all(d.answered for d in decisions_per_sentence[index])
            )
        ]
        bound.sort(
            key=lambda index: (
                len(mentions_per_sentence[index]),
                min(len(sentences[index].tokens), MAX_TOKENS),
            )
        )
        size = self.batch_size
        return [bound[start : start + size] for start in range(0, len(bound), size)]

    def _decide(
        self, sentences: Sequence[Sentence]
    ) -> list[tuple[list[Mention], list[Tier0Decision | MentionPrediction]]]:
        """The one path from mentions to linking decisions.

        Returns, per sentence, the mentions the encoder keeps
        (:func:`encodable_mentions`) and their outcomes: the cached
        :class:`Tier0Decision` where the cascade policy answered, else
        the model's :class:`MentionPrediction`. Only the sentences of
        the batch plan (:meth:`plan`) are encoded; the model runs them
        in plan order, ``batch_size`` at a time over the shared
        collation buffers, and the records are handed back in sentence
        order. A sentence list always builds the same batches (the
        byte-identity contract of docs/CASCADE.md). Confident mentions
        of an escalated sentence ride along as model context but keep
        their tier-0 answers.

        The model runs through this module's ``predict_batches``, looked
        up at call time so a tracer or a test can wrap it. This is the
        only place that holds both tiers' outcomes, so with provenance
        on it records each kept mention's whole decision record
        (:func:`_capture`).
        """
        mentions_per_sentence = [encodable_mentions(s) for s in sentences]
        started = time.perf_counter()
        decisions_per_sentence = self._resolve_tier0(mentions_per_sentence)
        tier0_elapsed = time.perf_counter() - started
        if decisions_per_sentence is not None:
            num_mentions = sum(map(len, decisions_per_sentence))
            num_escalated = sum(
                not decision.answered
                for decisions in decisions_per_sentence
                for decision in decisions
            )
            record_cascade_metrics(
                num_mentions - num_escalated,
                num_escalated,
                tier0_elapsed,
                reasons=reason_counts(decisions_per_sentence),
            )
        planned = [
            index
            for batch in self._plan(
                sentences, mentions_per_sentence, decisions_per_sentence
            )
            for index in batch
        ]
        model_outcomes: dict[int, list[MentionPrediction]] = {}
        if planned:
            dataset = NedDataset(
                Corpus([Page(0, 0, "test", [sentences[i] for i in planned])]),
                "test",
                self.vocab,
                self.candidate_map,
                self.num_candidates,
                kgs=self.kgs,
            )
            # The dataset holds the plan's order, so cutting it at
            # batch_size builds the plan's batches; the model emits one
            # record per encoded mention, in that order.
            records = iter(
                predict_batches(
                    self.model,
                    dataset.batches(self.batch_size, buffers=self._collate_buffers),
                )
            )
            for index in planned:
                model_outcomes[index] = [
                    next(records) for _ in mentions_per_sentence[index]
                ]
        capturing = obs.enabled and provenance.active
        decided = []
        for index, mentions in enumerate(mentions_per_sentence):
            decisions = (
                decisions_per_sentence[index]
                if decisions_per_sentence is not None
                else None
            )
            outcomes = model_outcomes.get(index)
            if outcomes is None:
                # Unplanned: no kept mention, or tier 0 answered them all.
                outcomes = decisions if decisions is not None else []
            elif decisions is not None:
                outcomes = [
                    decision if decision.answered else record
                    for decision, record in zip(decisions, outcomes)
                ]
            decided.append((mentions, outcomes))
            if capturing:
                for mention_index, (mention, outcome) in enumerate(
                    zip(mentions, outcomes)
                ):
                    _capture(
                        sentences[index].sentence_id,
                        mention_index,
                        mention,
                        decisions[mention_index] if decisions is not None else None,
                        outcome,
                    )
        return decided

    def _tier0_record(
        self,
        sentence: Sentence,
        mention_index: int,
        mention: Mention,
        decision: Tier0Decision,
    ) -> MentionPrediction:
        """A tier-0 answer shaped like the model's record: (K,) candidate
        arrays padded with ``CANDIDATE_PAD``, priors in prior order."""
        k = self.num_candidates
        ids = decision.candidate_ids
        candidate_ids = np.full(k, CANDIDATE_PAD, dtype=np.int64)
        # Pinned to float64 like predict_batches' records.
        candidate_scores = np.zeros(k, dtype=np.float64)  # repro-lint: disable=RA201
        candidate_ids[: ids.shape[0]] = ids
        candidate_scores[: ids.shape[0]] = decision.candidate_scores
        gold = int(mention.gold_entity_id)
        return MentionPrediction(
            sentence_id=sentence.sentence_id,
            mention_index=mention_index,
            surface=mention.surface,
            gold_entity_id=gold,
            predicted_entity_id=decision.entity_id,
            candidate_ids=candidate_ids,
            candidate_scores=candidate_scores,
            # NedDataset's Section 4.1 filter over the same top-K slate.
            evaluable=(
                ids.shape[0] > 1
                and not mention.is_weak_label
                and bool((ids == gold).any())
            ),
            is_weak=mention.is_weak_label,
            pattern=sentence.pattern,
            tier=TIER_HEURISTIC,
        )

    def _mention_from_record(
        self, record: MentionPrediction, mention: Mention
    ) -> AnnotatedMention:
        order = np.argsort(-record.candidate_scores)
        ranked = [
            (
                self.kb.entity(int(record.candidate_ids[i])).title,
                float(record.candidate_scores[i]),
            )
            for i in order
            if record.candidate_ids[i] >= 0
        ]
        return AnnotatedMention(
            start=mention.start,
            end=mention.end,
            surface=mention.surface,
            entity_id=record.predicted_entity_id,
            entity_title=self.kb.entity(record.predicted_entity_id).title,
            score=float(record.candidate_scores.max()),
            candidates=ranked,
            tier=TIER_MODEL,
        )

    def _mention_from_decision(
        self, decision: Tier0Decision, mention: Mention
    ) -> AnnotatedMention:
        ranked = [
            (self.kb.entity(int(entity_id)).title, float(score))
            for entity_id, score in zip(
                decision.candidate_ids, decision.candidate_scores
            )
        ]
        return AnnotatedMention(
            start=mention.start,
            end=mention.end,
            surface=mention.surface,
            entity_id=decision.entity_id,
            entity_title=self.kb.entity(decision.entity_id).title,
            score=decision.confidence,
            candidates=ranked,
            tier=TIER_HEURISTIC,
        )


def _capture(
    sentence_id: int,
    mention_index: int,
    mention: Mention,
    decision: Tier0Decision | None,
    outcome: Tier0Decision | MentionPrediction,
) -> None:
    """Record one kept mention's whole provenance record.

    ``decision`` is tier 0's answer (None without a cascade policy) and
    ``outcome`` the mention's decision. A tier-0 answer is recorded from
    the decision. A model decision is recorded from the model's
    candidate scores; under a cascade it keeps tier 0's escalation
    reason, and the priors are re-aligned onto the model's candidate
    list by id so ``prior_scores`` stays parallel to ``candidate_ids``.
    Annotated text has no gold (its mentions carry ``CANDIDATE_PAD``),
    so no gold id is recorded for it.
    """
    if obs.enabled and provenance.active:
        gold = mention.gold_entity_id
        fields: dict = {
            "surface": mention.surface,
            "alias": normalize_alias(mention.surface),
            "gold_entity_id": gold if gold != CANDIDATE_PAD else None,
        }
        if isinstance(outcome, Tier0Decision):
            fields.update(
                tier=TIER_HEURISTIC,
                candidate_ids=outcome.candidate_ids,
                prior_scores=outcome.candidate_scores,
                predicted_entity_id=outcome.entity_id,
                margin=outcome.margin,
                confidence=outcome.confidence,
            )
        else:
            candidate_ids = [
                int(cid) for cid in outcome.candidate_ids if cid != CANDIDATE_PAD
            ]
            scores = outcome.candidate_scores[: len(candidate_ids)].tolist()
            ranked = sorted(scores, reverse=True)
            fields.update(
                tier=TIER_MODEL,
                candidate_ids=candidate_ids,
                model_scores=scores,
                predicted_entity_id=outcome.predicted_entity_id,
                margin=ranked[0] - ranked[1] if len(ranked) > 1 else 0.0,
                confidence=ranked[0] if ranked else 0.0,
            )
            if decision is not None:
                prior_by_id = dict(
                    zip(
                        decision.candidate_ids.tolist(),
                        decision.candidate_scores.tolist(),
                    )
                )
                fields["prior_scores"] = [
                    prior_by_id.get(cid, 0.0) for cid in candidate_ids
                ]
        if decision is not None:
            fields.update(
                reason=decision.reason,
                type_veto=decision.reason == REASON_TYPE_VETO,
            )
        provenance.record_decision(sentence_id, mention_index, **fields)
