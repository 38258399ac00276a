"""Tests for vocabulary, documents, the corpus generator, stats and dataset."""

import numpy as np
import pytest

from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    Mention,
    NedDataset,
    PATTERN_AFFORDANCE,
    PATTERN_CONSISTENCY,
    PATTERN_ENTITY_MEMO,
    PATTERN_KG_RELATION,
    Sentence,
    Vocabulary,
    build_vocabulary,
    generate_corpus,
    pattern_coverage,
    tokenize,
)
from repro.corpus.document import Page
from repro.errors import ConfigError, CorpusError, VocabularyError
from repro.kb import WorldConfig, generate_world
from repro.nn.loss import IGNORE_INDEX


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=300, seed=3))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=150, seed=5))


class TestTokenizer:
    def test_lowercase_split(self):
        assert tokenize("Where is Lincoln") == ["where", "is", "lincoln"]

    def test_punctuation_separated(self):
        assert tokenize("a, b.") == ["a", ",", "b", "."]


class TestVocabulary:
    def test_special_tokens_fixed(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.mask_id == 4

    def test_build_and_roundtrip(self):
        vocab = Vocabulary.build([["a", "b"], ["b", "c"]])
        ids = vocab.encode(["a", "c", "zzz"])
        assert vocab.decode(ids[:2]) == ["a", "c"]
        assert ids[2] == vocab.unk_id

    def test_min_count_filters(self):
        vocab = Vocabulary.build([["a", "b", "b"]], min_count=2)
        assert "b" in vocab
        assert "a" not in vocab

    def test_min_count_invalid(self):
        with pytest.raises(VocabularyError):
            Vocabulary.build([], min_count=0)

    def test_decode_out_of_range(self):
        with pytest.raises(VocabularyError):
            Vocabulary().decode_id(999)

    def test_deterministic_order(self):
        v1 = Vocabulary.build([["x", "y", "z"]])
        v2 = Vocabulary.build([["x", "y", "z"]])
        assert v1.encode(["x", "y", "z"]).tolist() == v2.encode(["x", "y", "z"]).tolist()


class TestDocumentModel:
    def test_invalid_span(self):
        with pytest.raises(CorpusError):
            Mention(2, 2, "x", 0)
        with pytest.raises(CorpusError):
            Mention(-1, 1, "x", 0)

    def test_unknown_provenance(self):
        with pytest.raises(CorpusError):
            Mention(0, 1, "x", 0, provenance="guess")

    def test_mention_beyond_sentence(self):
        with pytest.raises(CorpusError):
            Sentence(0, 0, ["a"], [Mention(0, 2, "x", 0)])

    def test_overlapping_mentions_rejected(self):
        with pytest.raises(CorpusError):
            Sentence(0, 0, ["a", "b", "c"], [Mention(0, 2, "x", 0), Mention(1, 3, "y", 1)])

    def test_weak_mention_partition(self):
        sentence = Sentence(
            0,
            0,
            ["a", "b"],
            [
                Mention(0, 1, "a", 0),
                Mention(1, 2, "b", 1, provenance="pronoun_wl"),
            ],
        )
        assert len(sentence.anchor_mentions) == 1
        assert len(sentence.weak_mentions) == 1

    def test_with_extra_mentions_sorted(self):
        sentence = Sentence(0, 0, ["a", "b", "c"], [Mention(2, 3, "c", 0)])
        augmented = sentence.with_extra_mentions(
            [Mention(0, 1, "a", 1, provenance="alias_wl")]
        )
        assert [m.start for m in augmented.mentions] == [0, 2]
        assert len(sentence.mentions) == 1  # original untouched

    def test_page_bad_split(self):
        with pytest.raises(CorpusError):
            Page(0, 0, "dev", [])

    def test_corpus_split_access(self, corpus):
        assert len(corpus.sentences("train")) > len(corpus.sentences("val"))
        with pytest.raises(CorpusError):
            corpus.sentences("dev")
        total = len(corpus.sentences())
        assert total == sum(len(corpus.sentences(s)) for s in ("train", "val", "test"))


class TestGeneratorStructure:
    def test_deterministic(self, world):
        c1 = generate_corpus(world, CorpusConfig(num_pages=30, seed=9))
        c2 = generate_corpus(world, CorpusConfig(num_pages=30, seed=9))
        t1 = [s.tokens for s in c1.sentences()]
        t2 = [s.tokens for s in c2.sentences()]
        assert t1 == t2

    def test_seed_changes_corpus(self, world):
        c1 = generate_corpus(world, CorpusConfig(num_pages=30, seed=1))
        c2 = generate_corpus(world, CorpusConfig(num_pages=30, seed=2))
        assert [s.tokens for s in c1.sentences()] != [s.tokens for s in c2.sentences()]

    def test_split_fractions(self, corpus):
        pages = corpus.pages
        train = sum(1 for p in pages if p.split == "train")
        assert train == pytest.approx(0.8 * len(pages), abs=2)

    def test_unseen_entities_absent_from_train(self, world, corpus):
        for sentence in corpus.sentences("train"):
            for mention in sentence.mentions:
                assert mention.gold_entity_id not in world.unseen_entity_ids

    def test_unseen_entities_present_in_eval(self, world, corpus):
        eval_golds = {
            m.gold_entity_id
            for split in ("val", "test")
            for s in corpus.sentences(split)
            for m in s.mentions
        }
        assert eval_golds & set(world.unseen_entity_ids)

    def test_all_patterns_generated(self, corpus):
        patterns = {s.pattern for s in corpus.sentences()}
        assert {
            PATTERN_AFFORDANCE,
            PATTERN_KG_RELATION,
            PATTERN_CONSISTENCY,
            PATTERN_ENTITY_MEMO,
        } <= patterns

    def test_pattern_coverage_ordering(self, corpus):
        coverage = pattern_coverage(corpus)
        assert coverage[PATTERN_AFFORDANCE] > coverage[PATTERN_KG_RELATION]
        assert coverage[PATTERN_KG_RELATION] > coverage[PATTERN_CONSISTENCY]

    def test_kg_sentences_have_connected_golds(self, world, corpus):
        checked = 0
        for sentence in corpus.sentences():
            if sentence.pattern == PATTERN_KG_RELATION and len(sentence.mentions) >= 2:
                a = sentence.mentions[0].gold_entity_id
                b = sentence.mentions[1].gold_entity_id
                assert world.kg.connected(a, b)
                checked += 1
        assert checked > 10

    def test_consistency_sentences_share_type(self, world, corpus):
        checked = 0
        for sentence in corpus.sentences():
            if sentence.pattern == PATTERN_CONSISTENCY and len(sentence.mentions) >= 3:
                type_sets = [
                    set(world.kb.entity(m.gold_entity_id).type_ids)
                    for m in sentence.mentions[:3]
                ]
                assert type_sets[0] & type_sets[1] & type_sets[2]
                checked += 1
        assert checked > 5

    def test_affordance_sentences_contain_afford_word(self, world, corpus):
        checked = 0
        for sentence in corpus.sentences():
            if sentence.pattern == PATTERN_AFFORDANCE and sentence.mentions:
                gold = world.kb.entity(sentence.mentions[0].gold_entity_id)
                afford = {
                    w
                    for t in gold.type_ids
                    for w in world.kb.type_record(t).affordance_words
                }
                assert afford & set(sentence.tokens)
                checked += 1
        assert checked > 50

    def test_pages_reference_subject_without_labels(self, world, corpus):
        """Pages must contain unlabeled pronoun/alias references to their
        subject — the raw material for weak labeling."""
        found_pronoun, found_alias = 0, 0
        for page in corpus.pages:
            subject = world.kb.entity(page.subject_entity_id)
            for sentence in page.sentences[1:]:
                labeled_spans = {
                    i for m in sentence.mentions for i in range(m.start, m.end)
                }
                for i, token in enumerate(sentence.tokens):
                    if i in labeled_spans:
                        continue
                    if token in ("he", "she"):
                        found_pronoun += 1
                    if token in subject.aliases:
                        found_alias += 1
        assert found_pronoun > 10
        assert found_alias > 10

    def test_year_tokens_accompany_year_entities(self, world, corpus):
        checked = 0
        for sentence in corpus.sentences():
            for mention in sentence.mentions:
                entity = world.kb.entity(mention.gold_entity_id)
                if entity.year:
                    assert f"y{entity.year}" in sentence.tokens
                    checked += 1
        assert checked > 0

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            CorpusConfig(num_pages=2).validate()
        with pytest.raises(ConfigError):
            CorpusConfig(pattern_mixture=(1.0,)).validate()
        with pytest.raises(ConfigError):
            CorpusConfig(split_fractions=(0.5, 0.5, 0.5)).validate()


class TestPopularityAnatomy:
    def test_zipf_head_torso_tail(self, world, corpus):
        counts = EntityCounts.from_corpus(corpus, world.num_entities)
        summary = counts.summary()
        # Most entities should be tail or unseen; a minority torso; the
        # world is too small for paper-scale heads but buckets must be
        # non-degenerate.
        assert summary["tail"] > summary["torso"]
        assert summary["unseen"] >= len(world.unseen_entity_ids)

    def test_bucket_of_matches_bucket_ids(self, world, corpus):
        counts = EntityCounts.from_corpus(corpus, world.num_entities)
        for bucket in ("head", "torso", "tail", "unseen"):
            for entity_id in counts.bucket_ids(bucket)[:20]:
                assert counts.bucket_of(int(entity_id)) == bucket

    def test_unknown_bucket(self, world, corpus):
        counts = EntityCounts.from_corpus(corpus, world.num_entities)
        with pytest.raises(ValueError):
            counts.bucket_ids("middle")

    def test_counts_include_weak_flag(self, world, corpus):
        with_weak = EntityCounts.from_corpus(corpus, world.num_entities, include_weak=True)
        anchors_only = EntityCounts.from_corpus(
            corpus, world.num_entities, include_weak=False
        )
        assert with_weak.counts.sum() >= anchors_only.counts.sum()


class TestNedDataset:
    @pytest.fixture(scope="class")
    def dataset(self, world, corpus):
        vocab = build_vocabulary(corpus)
        return NedDataset(
            corpus, "train", vocab, world.candidate_map, num_candidates=6,
            kgs=[world.kg],
        )

    def test_encoding_shapes(self, dataset):
        item = dataset[0]
        m = item.num_mentions
        assert item.candidate_ids.shape == (m, 6)
        assert item.gold_candidate.shape == (m,)
        assert item.adjacencies[0].shape == (m * 6, m * 6)

    def test_gold_recall_high(self, dataset):
        # Candidate generation from the ground-truth map should nearly
        # always contain the gold (paper: ~99% after filtering).
        assert dataset.gold_recall() > 0.95

    def test_gold_candidate_points_at_gold(self, dataset):
        for item in dataset.encoded[:50]:
            for i in range(item.num_mentions):
                gold_idx = item.gold_candidate[i]
                if gold_idx != IGNORE_INDEX:
                    assert item.candidate_ids[i, gold_idx] == item.gold_entity_ids[i]

    def test_evaluable_requires_ambiguity(self, dataset):
        for item in dataset.encoded[:50]:
            for i in range(item.num_mentions):
                if item.evaluable[i]:
                    valid = (item.candidate_ids[i] >= 0).sum()
                    assert valid > 1
                    assert not item.is_weak[i]

    def test_batch_padding(self, dataset):
        batch = dataset.collate(dataset.encoded[:8])
        assert batch.size == 8
        assert batch.token_ids.shape == batch.token_pad_mask.shape
        assert batch.candidate_ids.shape[:2] == batch.mention_mask.shape
        # Padded mentions must be ignored.
        padded = ~batch.mention_mask
        assert (batch.gold_candidate[padded] == IGNORE_INDEX).all()

    def test_batch_adjacency_block(self, dataset):
        batch = dataset.collate(dataset.encoded[:4])
        item = dataset.encoded[0]
        size = item.num_mentions * 6
        np.testing.assert_allclose(
            batch.adjacencies[0][0, :size, :size], item.adjacencies[0]
        )

    def test_batches_cover_dataset(self, dataset):
        total = sum(batch.size for batch in dataset.batches(16))
        assert total == len(dataset)

    def test_batches_shuffled_deterministically(self, dataset):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        b1 = next(dataset.batches(4, rng1))
        b2 = next(dataset.batches(4, rng2))
        np.testing.assert_array_equal(b1.token_ids, b2.token_ids)

    def test_empty_collate_rejected(self, dataset):
        with pytest.raises(CorpusError):
            dataset.collate([])

    def test_num_candidates_validation(self, world, corpus):
        vocab = build_vocabulary(corpus)
        with pytest.raises(CorpusError):
            NedDataset(corpus, "train", vocab, world.candidate_map, num_candidates=1)


class TestCoverageStatistics:
    def test_structural_coverage_of_mentions(self, world, corpus):
        """Most mentions should have type signals; a meaningful fraction
        relation signals (Section 2: 97% / 27%)."""
        total, with_type, with_relation = 0, 0, 0
        for sentence in corpus.sentences("train"):
            for mention in sentence.mentions:
                entity = world.kb.entity(mention.gold_entity_id)
                total += 1
                with_type += bool(entity.type_ids)
                with_relation += bool(entity.relation_ids)
        assert with_type / total > 0.9
        assert with_relation / total > 0.5
