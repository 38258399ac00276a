"""Tests for repro.cascade: policy edges, byte-identity, attribution.

The byte-identity tests encode the cascade's determinism contract
(docs/CASCADE.md): escalated work is batched exactly as a standalone
full-model pass over the same sentences would batch it, so escalated
outputs are byte-identical to that pass. ``make check`` reruns this
module under ``REPRO_PARALLEL_START_METHOD=spawn`` to cover the pool
plumbing's pickling contract.
"""

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
from repro.cascade import (
    TIER_HEURISTIC,
    TIER_MODEL,
    CascadePolicy,
    Tier0Linker,
    record_cascade_metrics,
)
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.core.trainer import predict, predict_batches
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.corpus.dataset import encodable_mentions
from repro.errors import ConfigError
from repro.kb import WorldConfig, generate_world
from repro.kb.aliases import CandidateMap
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.schema import EntityRecord, TypeRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import SliceScore, score_slices

# Tiny synthetic worlds have overwhelmingly confident priors, so the
# default policy answers everything; this stricter policy produces a
# genuine answered/escalated mix on the 120-entity world below.
STRICT = CascadePolicy(margin=0.8, prior_mass=0.85)


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=120, seed=7))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=30, seed=7))


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocabulary(corpus)


@pytest.fixture(scope="module")
def model(world, corpus, vocab):
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    model = BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def dataset(world, corpus, vocab):
    return NedDataset(
        corpus, "val", vocab, world.candidate_map, 4, kgs=[world.kg]
    )


def records_equal(a, b):
    for field in dataclasses.fields(a):
        left = getattr(a, field.name)
        right = getattr(b, field.name)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), field.name
        else:
            assert left == right, field.name


# ----------------------------------------------------------------------
# Tier-0 decision edge cases
# ----------------------------------------------------------------------
class TestTier0Decisions:
    def test_single_candidate_alias_answers_with_full_margin(self):
        cmap = CandidateMap()
        cmap.add("solo", 3, 2.0)
        linker = Tier0Linker(cmap, CascadePolicy())
        decision = linker.resolve("solo")
        assert decision.answered
        assert decision.entity_id == 3
        assert decision.margin == 1.0
        assert decision.confidence == 1.0
        assert decision.tier == TIER_HEURISTIC

    def test_exact_prior_tie_escalates(self):
        cmap = CandidateMap()
        cmap.add("tie", 1, 1.0)
        cmap.add("tie", 2, 1.0)
        decision = Tier0Linker(cmap, CascadePolicy()).resolve("tie")
        assert not decision.answered
        assert decision.margin == 0.0
        assert decision.tier == TIER_MODEL

    def test_unknown_alias_is_answered_unlinkable(self):
        cmap = CandidateMap()
        cmap.add("known", 0, 1.0)
        decision = Tier0Linker(cmap, CascadePolicy()).resolve("never seen")
        assert decision.answered
        assert decision.entity_id == -1
        assert decision.candidate_ids.shape == (0,)

    def test_zero_prior_mass_escalates(self):
        cmap = CandidateMap()
        cmap.add("ghost", 4, 0.0)
        decision = Tier0Linker(cmap, CascadePolicy()).resolve("ghost")
        assert not decision.answered
        assert decision.entity_id == 4

    def test_type_veto_blocks_overshadowed_winner(self):
        # Top candidate is a person, but the location mass outweighs it:
        # the popularity winner is exactly the overshadowed case the
        # model exists for, so tier 0 must abstain.
        kb = KnowledgeBase(
            [
                EntityRecord(0, "A", "a", coarse_type_id=0),
                EntityRecord(1, "B", "b", coarse_type_id=1),
                EntityRecord(2, "C", "c", coarse_type_id=1),
            ],
            [TypeRecord(0, "t0", 0), TypeRecord(1, "t1", 1)],
            [],
        )
        cmap = CandidateMap()
        cmap.add("amb", 0, 0.45)
        cmap.add("amb", 1, 0.30)
        cmap.add("amb", 2, 0.25)
        policy = CascadePolicy(margin=0.1, prior_mass=0.4)
        vetoed = Tier0Linker(cmap, policy, kb=kb).resolve("amb")
        assert not vetoed.answered
        unvetoed = Tier0Linker(cmap, policy).resolve("amb")
        assert unvetoed.answered and unvetoed.entity_id == 0
        off = dataclasses.replace(policy, type_filter=False)
        assert Tier0Linker(cmap, off, kb=kb).resolve("amb").answered

    def test_decisions_are_cached_per_normalized_surface(self):
        cmap = CandidateMap()
        cmap.add("Miami Beach", 5, 1.0)
        linker = Tier0Linker(cmap, CascadePolicy())
        first = linker.resolve("Miami Beach")
        assert linker.resolve("miami  beach") is first

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            CascadePolicy(margin=1.5).validate()
        with pytest.raises(ConfigError):
            CascadePolicy(prior_mass=-0.1).validate()
        with pytest.raises(ConfigError):
            Tier0Linker(CandidateMap(), CascadePolicy(margin=2.0))

    def test_cascade_flag_defaults_come_from_the_policy(self):
        # Thresholds reach tier 0 only as a CascadePolicy; the CLI's
        # flags must not carry literals of their own.
        from repro.cli import _cascade_policy, build_parser

        required = {"annotate": ["--text", "t"], "evaluate": ["--corpus", "c"]}
        for command, extra in required.items():
            args = build_parser().parse_args(
                [command, "--world", "w", "--model", "m", *extra, "--cascade"]
            )
            assert _cascade_policy(args) == CascadePolicy()


# ----------------------------------------------------------------------
# predict_sentences (the evaluate path) over a split
# ----------------------------------------------------------------------
def evaluator(world, vocab, model, policy, batch_size=64):
    return BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
        num_candidates=4, batch_size=batch_size, cascade=policy,
    )


class TestCascadePredict:
    def test_record_order_and_tier_attribution(
        self, model, dataset, world, vocab, corpus
    ):
        records = evaluator(world, vocab, model, STRICT).predict_sentences(
            corpus.sentences("val")
        )
        full = predict(model, dataset)
        assert len(records) == len(full)
        assert [(r.sentence_id, r.mention_index) for r in records] == [
            (r.sentence_id, r.mention_index) for r in full
        ]
        tiers = {r.tier for r in records}
        assert tiers == {TIER_HEURISTIC, TIER_MODEL}, (
            "policy must produce an answered/escalated mix on this world"
        )

    def test_escalated_records_byte_identical_to_standalone_pass(
        self, model, world, vocab, corpus
    ):
        # docs/CASCADE.md's contract: escalated records equal a full-model
        # pass over exactly the escalated sentences.
        batch_size = 4
        sentences = corpus.sentences("val")
        records = evaluator(
            world, vocab, model, STRICT, batch_size=batch_size
        ).predict_sentences(sentences)
        # Replicate the escalation set independently.
        linker = Tier0Linker(world.candidate_map, STRICT, kb=world.kb,
                             num_candidates=4)
        escalated_sentences = [
            sentence
            for sentence in sentences
            if any(
                not linker.resolve(m.surface).answered
                for m in encodable_mentions(sentence)
            )
        ]
        assert escalated_sentences, "strict policy must escalate something"
        standalone = evaluator(
            world, vocab, model, None, batch_size=batch_size
        ).predict_sentences(escalated_sentences)
        by_key = {(r.sentence_id, r.mention_index): r for r in standalone}
        escalated = [r for r in records if r.tier == TIER_MODEL]
        assert len(escalated) > 0
        for record in escalated:
            records_equal(record, by_key[(record.sentence_id, record.mention_index)])

    def test_tier0_records_carry_normalized_priors(
        self, model, world, vocab, corpus
    ):
        records = evaluator(
            world, vocab, model, CascadePolicy()
        ).predict_sentences(corpus.sentences("val"))
        assert all(r.tier == TIER_HEURISTIC for r in records)
        for record in records:
            kept = record.candidate_scores[record.candidate_ids >= 0]
            assert kept.shape[0] > 0
            assert kept[0] == record.candidate_scores.max()
            assert 0.0 < kept.sum() <= 1.0 + 1e-9

    def test_predict_fn_receives_only_escalated_batches(
        self, model, dataset, world, vocab, corpus, monkeypatch
    ):
        # The function that runs the model batches is the annotator
        # module's predict_batches, looked up at call time.
        seen = []

        def spy(spy_model, batches):
            materialized = list(batches)
            seen.append(sum(b.token_ids.shape[0] for b in materialized))
            return predict_batches(spy_model, iter(materialized))

        monkeypatch.setattr("repro.core.annotator.predict_batches", spy)
        evaluator(world, vocab, model, STRICT).predict_sentences(
            corpus.sentences("val")
        )
        assert len(seen) == 1
        assert 0 < seen[0] < len(dataset)

    def test_all_confident_dataset_never_calls_model(
        self, model, world, vocab, corpus, monkeypatch
    ):
        def exploding(_model, _batches):
            raise AssertionError("model must not run when nothing escalates")

        monkeypatch.setattr("repro.core.annotator.predict_batches", exploding)
        records = evaluator(
            world, vocab, model, CascadePolicy()
        ).predict_sentences(corpus.sentences("val"))
        assert all(r.tier == TIER_HEURISTIC for r in records)


# ----------------------------------------------------------------------
# Annotator integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def texts(corpus, world, vocab, model):
    plain = BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
        num_candidates=4, batch_size=4,
    )
    kept = [
        detokenize(list(s.tokens))
        for s in corpus.sentences("test")[:12]
        if plain.detect_mentions(list(s.tokens))
    ]
    assert len(kept) >= 6
    return kept


class TestAnnotatorCascade:
    def make(self, world, vocab, model, policy):
        return BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
            num_candidates=4, batch_size=4, cascade=policy,
        )

    def test_empty_batch(self, world, vocab, model):
        annotator = self.make(world, vocab, model, CascadePolicy())
        assert annotator.annotate_batch([]) == []

    def test_spans_match_full_path_and_tiers_attributed(
        self, world, vocab, model, texts
    ):
        plain = self.make(world, vocab, model, None)
        cascade = self.make(world, vocab, model, STRICT)
        base = plain.annotate_batch(texts)
        tiered = cascade.annotate_batch(texts)
        assert [[(m.start, m.end) for m in doc] for doc in base] == [
            [(m.start, m.end) for m in doc] for doc in tiered
        ]
        tiers = {m.tier for doc in tiered for m in doc}
        assert TIER_HEURISTIC in tiers
        assert all(m.tier == TIER_MODEL for doc in base for m in doc)

    def test_escalated_mentions_byte_identical_to_standalone_run(
        self, world, vocab, model, texts
    ):
        cascade = self.make(world, vocab, model, STRICT)
        tiered = cascade.annotate_batch(texts)
        escalated_docs = [
            index
            for index, doc in enumerate(tiered)
            if any(m.tier == TIER_MODEL for m in doc)
        ]
        assert escalated_docs, "strict policy must escalate some document"
        plain = self.make(world, vocab, model, None)
        standalone = plain.annotate_batch([texts[i] for i in escalated_docs])
        for doc_index, full_doc in zip(escalated_docs, standalone):
            full_by_span = {(m.start, m.end): m for m in full_doc}
            for mention in tiered[doc_index]:
                if mention.tier != TIER_MODEL:
                    continue
                twin = full_by_span[(mention.start, mention.end)]
                assert dataclasses.asdict(mention) == dataclasses.asdict(twin)

    def test_fully_confident_docs_skip_the_model(
        self, world, vocab, model, texts, monkeypatch
    ):
        annotator = self.make(world, vocab, model, CascadePolicy())

        def exploding(*_args, **_kwargs):
            raise AssertionError("fully confident batch must not touch the model")

        monkeypatch.setattr("repro.core.annotator.predict_batches", exploding)
        tiered = annotator.annotate_batch(texts)
        assert all(m.tier == TIER_HEURISTIC for doc in tiered for m in doc)

    def test_overlapping_spans_rejected_with_and_without_cascade(
        self, world, vocab, model, texts
    ):
        for policy in (None, CascadePolicy()):
            annotator = self.make(world, vocab, model, policy)
            with pytest.raises(ConfigError, match="non-overlapping"):
                annotator.annotate(texts[0], [(0, 2), (1, 2)])

    def test_long_document_spans_agree_with_and_without_cascade(
        self, world, vocab, model
    ):
        # Only mentions ending within the encoder's token window are
        # decided, whichever tier would answer them.
        linker = Tier0Linker(
            world.candidate_map, STRICT, kb=world.kb, num_candidates=4
        )
        single = sorted(
            alias
            for alias in world.candidate_map.aliases()
            if len(alias.split()) == 1
        )
        confident = [a for a in single if linker.resolve(a).answered]
        abstaining = [a for a in single if not linker.resolve(a).answered]
        assert len(confident) >= 2 and abstaining
        tokens = ["zzfiller"] * 108
        tokens[2], tokens[103], tokens[105] = (
            confident[0], abstaining[0], confident[1],
        )
        text = detokenize(tokens)
        spans = {
            policy: [
                (m.start, m.end)
                for m in self.make(world, vocab, model, policy).annotate(text)
            ]
            for policy in (None, CascadePolicy(), STRICT)
        }
        assert spans[None] == [(2, 3)]
        assert spans[CascadePolicy()] == spans[None]
        assert spans[STRICT] == spans[None]

    def test_refresh_alias_index_rebuilds_the_linker(self, world, vocab, model):
        annotator = self.make(world, vocab, model, CascadePolicy())
        stale = annotator._tier0
        annotator.refresh_alias_index()
        assert annotator._tier0 is not stale


# ----------------------------------------------------------------------
# Pool plumbing (rerun under spawn by make check)
# ----------------------------------------------------------------------
class TestPoolCascade:
    def test_worker_spec_carries_the_policy(self, world, vocab, model):
        from repro.parallel import AnnotatorPool, shared_memory_available

        if not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        annotator = BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
            num_candidates=4, batch_size=4, cascade=STRICT,
        )
        with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
            assert not pool.serial
            assert pool._spec.cascade == STRICT

    def test_pool_matches_serial_cascade(self, world, vocab, model, texts):
        from repro.parallel import AnnotatorPool, shared_memory_available

        if not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        annotator = BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
            num_candidates=4, batch_size=4, cascade=STRICT,
        )
        serial = annotator.annotate_batch(texts)
        with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
            pooled = pool.annotate_batch(texts)
        assert {m.tier for doc in pooled for m in doc} == {
            TIER_HEURISTIC, TIER_MODEL,
        }
        # Both sides run the default compute dtype, and the pool runs the
        # serial plan's batches, so every field is exact (docs/CASCADE.md).
        assert [[dataclasses.asdict(m) for m in doc] for doc in pooled] == [
            [dataclasses.asdict(m) for m in doc] for doc in serial
        ]

    def test_cascade_counters_survive_registry_merge(self):
        source = MetricsRegistry()
        with obs.scope():
            record_cascade_metrics(7, 3, 0.001)
            snapshot = obs.metrics.snapshot()
        source.merge(snapshot, worker="0")
        source.merge(snapshot, worker="1")
        merged = source.to_dict()["counters"]
        assert merged["cascade.tier0_answered{worker=0}"] == 7
        assert merged["cascade.escalated{worker=1}"] == 3
        histograms = source.to_dict()["histograms"]
        assert "cascade.tier0_seconds{worker=0}" in histograms


# ----------------------------------------------------------------------
# Report tier attribution
# ----------------------------------------------------------------------
class TestReportTiers:
    def test_score_slices_counts_tiers(self, model, world, vocab, corpus):
        records = evaluator(world, vocab, model, STRICT).predict_sentences(
            corpus.sentences("val")
        )
        scores = score_slices(records, num_samples=20)
        tiers = scores["all"].tiers
        assert set(tiers) == {TIER_HEURISTIC, TIER_MODEL}
        assert sum(tiers.values()) == scores["all"].num_mentions

    def test_slice_score_round_trips_tiers(self):
        score = SliceScore("all", 90.0, 88.0, 92.0, 10, tiers={"tier0": 6, "model": 4})
        rebuilt = SliceScore.from_dict("all", score.to_dict())
        assert rebuilt.tiers == {"tier0": 6, "model": 4}

    def test_from_dict_tolerates_missing_tiers(self):
        payload = {"f1": 90.0, "low": 88.0, "high": 92.0, "num_mentions": 10}
        assert SliceScore.from_dict("all", payload).tiers == {}


# ----------------------------------------------------------------------
# Mention-detector scan bound
# ----------------------------------------------------------------------
class _ProbeCountingMap:
    """Delegating candidate-map spy that counts lookup probes."""

    def __init__(self, inner):
        self.inner = inner
        self.probes = 0

    def get_candidates(self, alias, k=None):
        self.probes += 1
        return self.inner.get_candidates(alias, k)

    def max_alias_tokens(self):
        return self.inner.max_alias_tokens()


class TestDetectorBound:
    def test_max_alias_tokens(self):
        cmap = CandidateMap()
        assert cmap.max_alias_tokens() == 0
        cmap.add("one", 0, 1.0)
        cmap.add("two tokens here", 1, 1.0)
        assert cmap.max_alias_tokens() == 3
        cmap.add("a much longer alias of six", 2, 1.0)
        assert cmap.max_alias_tokens() == 6

    def test_scan_window_bounded_by_longest_alias(self):
        from repro.candgen.detection import MentionDetector

        cmap = CandidateMap()
        cmap.add("miami", 0, 1.0)
        cmap.add("south beach", 1, 1.0)
        spy = _ProbeCountingMap(cmap)
        detector = MentionDetector(spy, max_span=5, expand_boundaries=False)
        tokens = ["unknownA", "unknownB", "unknownC", "unknownD"]
        detector.detect(tokens)
        # Window capped at 2 (longest alias): at most 2 probes per
        # position instead of up to 5.
        assert spy.probes <= 2 * len(tokens)

    def test_detections_unchanged_by_bound(self, world):
        from repro.candgen.detection import MentionDetector

        tokens = ["the"] + world.kb.entity(0).mention_stem.split() + ["of"]
        wide = MentionDetector(world.candidate_map, max_span=9)
        narrow = MentionDetector(world.candidate_map, max_span=3)
        assert [d.span for d in wide.detect(tokens)] == [
            d.span for d in narrow.detect(tokens)
        ]
