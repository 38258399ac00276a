"""Tests for mention detection and end-to-end linking evaluation."""

import pytest

from repro.candgen import (
    DetectedMention,
    MentionDetector,
    evaluate_detection,
    evaluate_linking,
    link_sentences,
    mine_candidate_map,
)
from repro.core import BootlegConfig, BootlegModel, TrainConfig, Trainer
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.corpus.document import Mention, Sentence
from repro.errors import ConfigError
from repro.kb import CandidateMap, WorldConfig, generate_world


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=200, seed=23))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=100, seed=23))


def small_map():
    cmap = CandidateMap()
    cmap.add("lincoln", 0, 5.0)
    cmap.add("lincoln", 1, 1.0)
    cmap.add("abraham lincoln", 0, 3.0)
    cmap.add("ford", 2, 2.0)
    cmap.add("the", 9, 1.0)  # stopword collision
    return cmap


class TestMentionDetector:
    def test_detects_known_aliases(self):
        detector = MentionDetector(small_map())
        detections = detector.detect(["we", "saw", "lincoln", "today"])
        assert detections == [DetectedMention(2, 3, "lincoln")]

    def test_longest_match_preferred(self):
        detector = MentionDetector(small_map(), expand_boundaries=False)
        detections = detector.detect(["abraham", "lincoln", "spoke"])
        assert detections[0].surface == "abraham lincoln"
        assert detections[0].span == (0, 2)

    def test_boundary_expansion(self):
        detector = MentionDetector(small_map(), expand_boundaries=True)
        # Scanner at "lincoln" alone would match length-1; expansion to the
        # left absorbs "abraham".
        detections = detector.detect(["x", "abraham", "lincoln"])
        # Greedy scan finds "abraham lincoln" at position 1 directly.
        assert detections[0].surface == "abraham lincoln"

    def test_stopwords_never_match(self):
        detector = MentionDetector(small_map())
        assert detector.detect(["the", "the", "the"]) == []

    def test_min_prior_mass_filters(self):
        detector = MentionDetector(small_map(), min_prior_mass=10.0)
        assert detector.detect(["ford"]) == []  # total mass 2.0 < 10
        detector = MentionDetector(small_map(), min_prior_mass=1.0)
        assert detector.detect(["ford"])

    def test_non_overlapping(self):
        detector = MentionDetector(small_map())
        detections = detector.detect(["lincoln", "lincoln"])
        assert [d.span for d in detections] == [(0, 1), (1, 2)]

    def test_invalid_max_span(self):
        with pytest.raises(ConfigError):
            MentionDetector(small_map(), max_span=0)

    def test_recall_on_generated_corpus(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        detector = MentionDetector(cmap)
        sentences = corpus.sentences("val")
        detections = {
            s.sentence_id: detector.detect(s.tokens) for s in sentences
        }
        prf = evaluate_detection(detections, sentences)
        # Every gold surface is a known alias, so recall must be high;
        # precision is lower (aliases also appear unlinked).
        assert prf.recall > 0.9


class TestDetectionScoring:
    def make_sentence(self):
        return Sentence(
            7, 0, ["a", "x", "b", "y"],
            [Mention(1, 2, "x", 10), Mention(3, 4, "y", 11)],
        )

    def test_detection_prf(self):
        sentence = self.make_sentence()
        detections = {
            7: [DetectedMention(1, 2, "x"), DetectedMention(0, 1, "a")]
        }
        prf = evaluate_detection(detections, [sentence])
        assert prf.num_correct == 1
        assert prf.precision == pytest.approx(0.5)
        assert prf.recall == pytest.approx(0.5)

    def test_linking_requires_span_and_entity(self):
        sentence = self.make_sentence()
        predictions = {
            7: [((1, 2), 10), ((3, 4), 99)]  # first right, second wrong entity
        }
        prf = evaluate_linking(predictions, [sentence])
        assert prf.num_correct == 1
        assert prf.precision == pytest.approx(0.5)
        assert prf.recall == pytest.approx(0.5)

    def test_linking_empty(self):
        prf = evaluate_linking({}, [self.make_sentence()])
        assert prf.f1 == 0.0


class TestEndToEndLinking:
    def test_link_sentences_pipeline(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        vocab = build_vocabulary(corpus)
        counts = EntityCounts.from_corpus(corpus, world.num_entities)
        train = NedDataset(corpus, "train", vocab, cmap, 4, kgs=[world.kg])
        model = BootlegModel(
            BootlegConfig(num_candidates=4), world.kb, vocab,
            entity_counts=counts.counts,
        )
        Trainer(
            model, train,
            TrainConfig(epochs=6, batch_size=32, learning_rate=3e-3),
        ).train()
        sentences = corpus.sentences("val")[:60]
        links = link_sentences(
            model, sentences, vocab, cmap, 4, kgs=[world.kg]
        )
        assert links, "pipeline should link something"
        prf = evaluate_linking(links, sentences)
        # End-to-end linking: recall well above zero and precision finite;
        # detection noise means P != R in general.
        assert prf.recall > 0.3
        assert prf.num_predicted > prf.num_correct > 0
