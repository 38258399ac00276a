"""Tests for weak labeling heuristics/pipeline and candidate generation."""

import pytest

from repro.candgen import (
    NGramCandidateGenerator,
    direct_candidates,
    mine_anchor_candidates,
    mine_candidate_map,
    mine_kb_candidates,
)
from repro.corpus import (
    CorpusConfig,
    Mention,
    PROVENANCE_ALIAS_WL,
    PROVENANCE_PRONOUN_WL,
    Sentence,
    generate_corpus,
    mention_growth_factor,
)
from repro.corpus.document import Page
from repro.kb import (
    COARSE_TYPES,
    EntityRecord,
    KnowledgeBase,
    RelationRecord,
    TypeRecord,
    WorldConfig,
    generate_world,
)
from repro.weaklabel import (
    WeakLabeler,
    label_alternate_names,
    label_pronouns,
    weak_label_corpus,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=300, seed=3))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=150, seed=5))


def make_person_kb():
    person_coarse = COARSE_TYPES.index("person")
    types = [TypeRecord(0, "politician", person_coarse, ("elected",))]
    entities = [
        EntityRecord(
            0, "ada lovelace", "lovelace", ("ada",), (0,), person_coarse,
            gender="f",
        ),
        EntityRecord(
            1, "charles babbage", "babbage", ("charles",), (0,), person_coarse,
            gender="m",
        ),
        EntityRecord(2, "engine", "engine", (), (0,), 3),
    ]
    return KnowledgeBase(entities, types, [RelationRecord(0, "knows")])


def make_person_page(kb, subject_id=0):
    sentences = [
        Sentence(
            0, 0,
            ["the", "lovelace", "wrote", "notes"],
            [Mention(1, 2, "lovelace", 0)],
        ),
        Sentence(1, 0, ["she", "met", "babbage"], [Mention(2, 3, "babbage", 1)]),
        Sentence(2, 0, ["he", "praised", "ada", "too"], []),
    ]
    return Page(0, subject_id, "train", sentences)


class TestPronounLabeling:
    def test_matches_gender(self):
        kb = make_person_kb()
        page = make_person_page(kb)
        results = label_pronouns(page, kb)
        # Subject is female: only "she" should be labeled, not "he".
        all_mentions = [m for _, ms in results for m in ms]
        assert len(all_mentions) == 1
        mention = all_mentions[0]
        assert mention.gold_entity_id == 0
        assert mention.provenance == PROVENANCE_PRONOUN_WL
        sentence = results[0][0]
        assert sentence.tokens[mention.start] == "she"

    def test_male_subject_matches_he(self):
        kb = make_person_kb()
        page = make_person_page(kb, subject_id=1)
        results = label_pronouns(page, kb)
        tokens = [s.tokens[m.start] for s, ms in results for m in ms]
        assert tokens == ["he"]

    def test_non_person_subject_skipped(self):
        kb = make_person_kb()
        page = make_person_page(kb, subject_id=2)
        assert label_pronouns(page, kb) == []

    def test_does_not_relabel_existing_mentions(self):
        kb = make_person_kb()
        sentences = [
            Sentence(0, 0, ["she", "ran"], [Mention(0, 1, "lovelace", 0)]),
        ]
        page = Page(0, 0, "train", sentences)
        assert label_pronouns(page, kb) == []


class TestAlternateNameLabeling:
    def test_labels_alias_tokens(self):
        kb = make_person_kb()
        page = make_person_page(kb)
        results = label_alternate_names(page, kb)
        all_mentions = [m for _, ms in results for m in ms]
        assert len(all_mentions) == 1
        mention = all_mentions[0]
        assert mention.surface == "ada"
        assert mention.gold_entity_id == 0
        assert mention.provenance == PROVENANCE_ALIAS_WL

    def test_skips_labeled_positions(self):
        kb = make_person_kb()
        sentences = [Sentence(0, 0, ["ada", "x"], [Mention(0, 1, "ada", 0)])]
        page = Page(0, 0, "train", sentences)
        assert label_alternate_names(page, kb) == []


class TestPipeline:
    def test_growth_factor_meaningful(self, world, corpus):
        labeled, report = weak_label_corpus(corpus, world.kb)
        assert report.total_weak_labels > 0
        assert report.pronoun_labels > 0
        assert report.alias_labels > 0
        # Paper reports 1.7x across Wikipedia; our pages are denser in
        # anchors so we accept anything clearly above 1.1x.
        assert report.growth_factor > 1.1
        assert mention_growth_factor(corpus, labeled) == pytest.approx(
            report.growth_factor, rel=1e-6
        )

    def test_only_train_split_labeled(self, world, corpus):
        labeled, _ = weak_label_corpus(corpus, world.kb)
        for split in ("val", "test"):
            for sentence in labeled.sentences(split):
                assert not sentence.weak_mentions

    def test_original_corpus_untouched(self, world, corpus):
        before = corpus.num_mentions("train")
        weak_label_corpus(corpus, world.kb)
        assert corpus.num_mentions("train") == before

    def test_weak_labels_point_at_page_subject(self, world, corpus):
        labeled, _ = weak_label_corpus(corpus, world.kb)
        for page in labeled.pages:
            for sentence in page.sentences:
                for mention in sentence.weak_mentions:
                    assert mention.gold_entity_id == page.subject_entity_id

    def test_heuristics_toggle(self, world, corpus):
        _, pronoun_only = WeakLabeler(world.kb, use_alternate_names=False).apply(corpus)
        _, alias_only = WeakLabeler(world.kb, use_pronouns=False).apply(corpus)
        assert pronoun_only.alias_labels == 0
        assert alias_only.pronoun_labels == 0
        assert pronoun_only.pronoun_labels > 0
        assert alias_only.alias_labels > 0


class TestCandidateMining:
    def test_anchor_map_scores_are_counts(self, corpus):
        cmap = mine_anchor_candidates(corpus)
        sentence = corpus.sentences("train")[0]
        mention = sentence.anchor_mentions[0]
        ranked = dict(cmap.candidates(mention.surface))
        assert ranked[mention.gold_entity_id] >= 1.0

    def test_kb_map_covers_all_entities(self, world):
        cmap = mine_kb_candidates(world.kb)
        for entity in list(world.kb.entities())[:50]:
            assert entity.entity_id in cmap.candidate_ids(entity.title)
            assert entity.entity_id in cmap.candidate_ids(entity.mention_stem)

    def test_merged_map_recall(self, world, corpus):
        """The mined Γ must contain the gold entity for nearly every
        evaluation mention (decoupling candgen from model quality)."""
        cmap = mine_candidate_map(corpus, world.kb)
        total, hit = 0, 0
        for split in ("val", "test"):
            for sentence in corpus.sentences(split):
                for mention in sentence.anchor_mentions:
                    total += 1
                    ids = cmap.candidate_ids(mention.surface, k=8)
                    hit += mention.gold_entity_id in ids
        assert total > 100
        assert hit / total > 0.95

    def test_mined_popularity_order_matches_world(self, world, corpus):
        """Anchor-count ranking should approximate the world's Zipf
        ranking for frequently seen stems."""
        cmap = mine_candidate_map(corpus, world.kb)
        agreements, checked = 0, 0
        for entity in list(world.kb.entities())[:30]:
            mined = cmap.candidate_ids(entity.mention_stem, k=3)
            truth = world.candidate_map.candidate_ids(entity.mention_stem, k=3)
            if len(truth) >= 2:
                checked += 1
                agreements += mined[0] == truth[0]
        assert checked > 5
        assert agreements / checked > 0.6


class TestNGramBackoff:
    def test_direct_lookup_preferred(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        generator = NGramCandidateGenerator(cmap, world.kb)
        entity = world.kb.entity(0)
        direct = direct_candidates(cmap, entity.mention_stem, 5)
        via_generator = generator.candidates(entity.mention_stem, [], 5)
        assert via_generator == direct

    def test_backoff_on_unknown_surface(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        generator = NGramCandidateGenerator(cmap, world.kb)
        entity = world.kb.entity(5)
        surface = f"unknownword {entity.mention_stem}"
        results = generator.candidates(surface, [], 5)
        assert entity.entity_id in [eid for eid, _ in results]

    def test_context_rescoring_prefers_matching_profile(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        generator = NGramCandidateGenerator(cmap, world.kb)
        entity = world.kb.entity(10)
        mates = [
            eid
            for eid, _ in cmap.get_candidates(entity.mention_stem, 10)
            if eid != entity.entity_id
        ]
        if not mates:
            pytest.skip("stem has no confusables in this seed")
        context = list(entity.cue_words) * 3
        surface = f"zzz {entity.mention_stem}"
        results = generator.candidates(surface, context, 5)
        ranked_ids = [eid for eid, _ in results]
        assert entity.entity_id in ranked_ids
        assert ranked_ids.index(entity.entity_id) <= 1

    def test_no_candidates_for_garbage(self, world, corpus):
        cmap = mine_candidate_map(corpus, world.kb)
        generator = NGramCandidateGenerator(cmap, world.kb)
        assert generator.candidates("qqq zzz", [], 5) == []
