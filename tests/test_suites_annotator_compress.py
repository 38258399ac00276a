"""Tests for benchmark suites, the annotator API, and compression."""

import numpy as np
import pytest

from repro.benchmarks_data import (
    build_aida_like,
    build_all_suites,
    build_kore_like,
    build_rss_like,
    prefix_with_title,
)
from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
    compressed_embeddings,
    compression_stats,
)
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    generate_corpus,
)
from repro.corpus.vocab import SEP_TOKEN, Vocabulary
from repro.errors import ConfigError
from repro.kb import WorldConfig, generate_world


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=250, seed=4))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=80, seed=4))


@pytest.fixture(scope="module")
def vocab(world, corpus):
    suites = build_all_suites(world, seed=0)
    streams = [s.tokens for s in corpus.sentences()]
    for suite in suites:
        streams.extend(s.tokens for s in suite.corpus.sentences())
    return Vocabulary.build(streams)


@pytest.fixture(scope="module")
def model(world, vocab, corpus):
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    return BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )


class TestSuites:
    def test_kore_is_all_test_split(self, world):
        suite = build_kore_like(world)
        assert suite.num_mentions("test") > 50
        assert suite.corpus.num_mentions("train") == 0

    def test_rss_standard_flavor(self, world):
        suite = build_rss_like(world)
        assert suite.num_mentions("test") > 100

    def test_aida_has_finetune_splits(self, world):
        suite = build_aida_like(world)
        assert suite.corpus.num_mentions("train") > suite.num_mentions("test") > 0

    def test_aida_title_prefix(self, world):
        suite = build_aida_like(world)
        for sentence in suite.corpus.sentences()[:20]:
            assert sentence.tokens[1] == SEP_TOKEN
            for mention in sentence.mentions:
                assert mention.start >= 2
                assert sentence.tokens[mention.start] == mention.surface

    def test_prefix_transform_preserves_mentions(self, world, corpus):
        transformed = prefix_with_title(corpus, world.kb)
        assert transformed.num_mentions() == corpus.num_mentions()

    def test_kore_harder_than_rss_for_prior(self, world):
        """The popularity prior should do worse on the KORE-like suite."""
        from repro.baselines import most_popular_predictions
        from repro.eval import micro_f1

        cmap = world.candidate_map
        vocab_local = Vocabulary.build(
            s.tokens
            for suite in build_all_suites(world, seed=0)
            for s in suite.corpus.sentences()
        )
        scores = {}
        for builder, name in ((build_kore_like, "kore"), (build_rss_like, "rss")):
            suite = builder(world)
            dataset = NedDataset(suite.corpus, "test", vocab_local, cmap, 4)
            scores[name] = micro_f1(most_popular_predictions(dataset))
        assert scores["kore"] < scores["rss"]

    def test_suites_deterministic(self, world):
        a = build_kore_like(world, seed=7)
        b = build_kore_like(world, seed=7)
        assert [s.tokens for s in a.corpus.sentences()] == [
            s.tokens for s in b.corpus.sentences()
        ]


class TestAnnotator:
    @pytest.fixture(scope="class")
    def annotator(self, model, vocab, world):
        return BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb,
            kgs=[world.kg], num_candidates=4,
        )

    def test_detect_mentions_finds_known_aliases(self, annotator, world):
        entity = world.kb.entity(0)
        tokens = ["w1", entity.mention_stem, "w2"]
        spans = annotator.detect_mentions(tokens)
        assert (1, 2) in spans

    def test_annotate_returns_candidates(self, annotator, world):
        entity = world.kb.entity(0)
        results = annotator.annotate(f"w1 {entity.mention_stem} w2")
        assert len(results) == 1
        annotation = results[0]
        assert annotation.surface == entity.mention_stem
        assert world.kb.has_title(annotation.entity_title)
        assert len(annotation.candidates) >= 1
        titles = [t for t, _ in annotation.candidates]
        assert annotation.entity_title in titles

    def test_annotate_with_explicit_spans(self, annotator, world):
        entity = world.kb.entity(3)
        results = annotator.annotate(
            f"w1 w2 {entity.mention_stem}", mention_spans=[(2, 3)]
        )
        assert len(results) == 1
        assert results[0].start == 2

    def test_annotate_no_known_mentions(self, annotator):
        assert annotator.annotate("zzz qqq unknownword") == []

    def test_empty_text_rejected(self, annotator):
        with pytest.raises(ConfigError):
            annotator.annotate("   ")

    def test_invalid_span_rejected(self, annotator):
        with pytest.raises(ConfigError):
            annotator.annotate("w1 w2", mention_spans=[(1, 9)])

    def test_affordance_context_steers_prediction(self, annotator, world, corpus, vocab, model):
        """A trained annotator should use affordance context; untrained we
        only check the plumbing returns scores for all candidates."""
        entity = next(e for e in world.kb.entities() if e.type_ids)
        afford = world.kb.type_record(entity.type_ids[0]).affordance_words[0]
        results = annotator.annotate(f"{afford} {entity.mention_stem}")
        assert results and results[0].candidates


class TestCompression:
    def test_stats_accounting(self, model):
        stats = compression_stats(model, 5.0)
        assert stats.total_rows == model.kb.num_entities
        assert stats.kept_rows == round(model.kb.num_entities * 0.05)
        assert stats.compression_ratio == pytest.approx(95.0)
        assert stats.embedding_mb_compressed < stats.embedding_mb_full

    def test_compression_replaces_and_restores(self, model, world):
        counts = np.zeros(world.num_entities)
        counts[:50] = 100  # entities 0..49 popular, rest unseen
        table = model.embedder.entity_table.weight
        table.data[...] = np.random.default_rng(0).normal(size=table.data.shape)
        original = table.data.copy()
        with compressed_embeddings(model, counts, keep_percent=10.0):
            kept = table.data[:25]
            np.testing.assert_allclose(kept, original[:25])
            # All dropped rows are identical (the shared replacement row).
            dropped = table.data[50:]
            np.testing.assert_allclose(
                dropped, np.broadcast_to(dropped[0], dropped.shape)
            )
            # Dropped popular rows (25..49) also carry the replacement.
            np.testing.assert_allclose(table.data[30], dropped[0])
        np.testing.assert_allclose(table.data, original)

    def test_keep_100_is_identity(self, model, world):
        table = model.embedder.entity_table.weight
        original = table.data.copy()
        counts = np.arange(world.num_entities)
        with compressed_embeddings(model, counts, keep_percent=100.0):
            np.testing.assert_allclose(table.data, original)

    def test_invalid_percent(self, model, world):
        with pytest.raises(ConfigError):
            with compressed_embeddings(model, np.zeros(world.num_entities), 150.0):
                pass

    def test_count_length_checked(self, model):
        with pytest.raises(ConfigError):
            with compressed_embeddings(model, np.zeros(3), 50.0):
                pass

    def test_restores_after_exception(self, model, world):
        table = model.embedder.entity_table.weight
        original = table.data.copy()
        with pytest.raises(RuntimeError):
            with compressed_embeddings(model, np.zeros(world.num_entities), 10.0):
                raise RuntimeError("boom")
        np.testing.assert_allclose(table.data, original)
