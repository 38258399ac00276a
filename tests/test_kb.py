"""Tests for the knowledge base, knowledge graph, aliases, and world gen."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import KnowledgeBaseError, UnknownAliasError, UnknownEntityError
from repro.kb import (
    COARSE_TYPES,
    CandidateMap,
    EntityRecord,
    KnowledgeBase,
    KnowledgeGraph,
    RelationRecord,
    Triple,
    TypeRecord,
    WorldConfig,
    build_cooccurrence_graph,
    generate_world,
    normalize_alias,
    zipf_weights,
)
from repro.errors import ConfigError


def tiny_kb():
    types = [
        TypeRecord(0, "city", 1, ("located",)),
        TypeRecord(1, "person", 0, ("born",)),
    ]
    relations = [RelationRecord(0, "capital of", ("capital",), 1, 1)]
    entities = [
        EntityRecord(0, "springfield", "springfield", ("spring",), (0,), 1, (0,)),
        EntityRecord(1, "springfield_1", "springfield", (), (1,), 0, (), gender="f"),
        EntityRecord(2, "shelbyville", "shelbyville", (), (0,), 1, (0,)),
    ]
    return KnowledgeBase(entities, types, relations)


class TestSchema:
    def test_coarse_type_out_of_range(self):
        with pytest.raises(ValueError):
            TypeRecord(0, "bad", 9)

    def test_negative_entity_id(self):
        with pytest.raises(ValueError):
            EntityRecord(-1, "x", "x")

    def test_bad_gender(self):
        with pytest.raises(ValueError):
            EntityRecord(0, "x", "x", gender="q")

    def test_surface_forms(self):
        entity = EntityRecord(0, "x", "stem", aliases=("a", "b"))
        assert entity.surface_forms == ("stem", "a", "b")

    def test_triple_unpacks(self):
        s, r, o = Triple(1, 2, 3)
        assert (s, r, o) == (1, 2, 3)


class TestKnowledgeBase:
    def test_lookup(self):
        kb = tiny_kb()
        assert kb.entity(0).title == "springfield"
        assert kb.entity_by_title("shelbyville").entity_id == 2
        assert kb.has_title("springfield_1")
        assert not kb.has_title("nope")

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            tiny_kb().entity(99)

    def test_unknown_title(self):
        with pytest.raises(KnowledgeBaseError):
            tiny_kb().entity_by_title("nope")

    def test_non_dense_ids_rejected(self):
        entities = [EntityRecord(1, "a", "a")]
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase(entities, [], [])

    def test_duplicate_titles_rejected(self):
        entities = [EntityRecord(0, "a", "a"), EntityRecord(1, "a", "a")]
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase(entities, [], [])

    def test_unknown_type_id_rejected(self):
        entities = [EntityRecord(0, "a", "a", type_ids=(3,))]
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase(entities, [], [])

    def test_entities_of_type(self):
        kb = tiny_kb()
        assert kb.entities_of_type(0) == [0, 2]
        assert kb.entities_of_type(1) == [1]

    def test_entities_of_relation(self):
        assert tiny_kb().entities_of_relation(0) == [0, 2]

    def test_type_id_matrix_shift_and_pad(self):
        kb = tiny_kb()
        matrix = kb.type_id_matrix(max_types=2)
        assert matrix.shape == (3, 2)
        assert matrix[0, 0] == 1  # type 0 shifted by +1
        assert matrix[0, 1] == 0  # padding
        assert matrix[1, 0] == 2

    def test_relation_id_matrix(self):
        kb = tiny_kb()
        matrix = kb.relation_id_matrix(max_relations=3)
        assert matrix[0, 0] == 1
        assert matrix[1].tolist() == [0, 0, 0]

    def test_coarse_type_ids(self):
        assert tiny_kb().coarse_type_ids().tolist() == [1, 0, 1]

    def test_structural_coverage(self):
        cov = tiny_kb().structural_coverage()
        assert cov["type"] == 1.0
        assert cov["relation"] == pytest.approx(2 / 3)


class TestKnowledgeGraph:
    def test_connected_undirected(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 1)])
        assert kg.connected(0, 1) and kg.connected(1, 0)
        assert not kg.connected(0, 2)

    def test_relations_between(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 1), Triple(0, 2, 1)])
        assert kg.relations_between(0, 1) == {0, 2}
        assert kg.relations_between(0, 3) == set()

    def test_out_of_range_rejected(self):
        kg = KnowledgeGraph(2)
        with pytest.raises(KnowledgeBaseError):
            kg.add_triple(Triple(0, 0, 5))

    def test_shared_neighbors(self):
        kg = KnowledgeGraph(5, [Triple(0, 0, 2), Triple(1, 0, 2), Triple(0, 0, 3)])
        assert kg.shared_neighbors(0, 1) == {2}

    def test_degree_and_neighbors(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 1), Triple(0, 0, 2)])
        assert kg.degree(0) == 2
        assert kg.neighbors(0) == {1, 2}
        assert kg.degree(3) == 0

    def test_candidate_adjacency_binary(self):
        kg = KnowledgeGraph(5, [Triple(0, 0, 3)])
        ids = np.array([0, 1, 3, 4])
        adj = kg.candidate_adjacency(ids)
        assert adj[0, 2] == 1.0 and adj[2, 0] == 1.0
        assert adj.sum() == 2.0

    def test_candidate_adjacency_ignores_padding(self):
        kg = KnowledgeGraph(5, [Triple(0, 0, 3)])
        ids = np.array([0, -1, 3])
        adj = kg.candidate_adjacency(ids, pad_id=-1)
        assert adj[0, 1] == 0.0
        assert adj[0, 2] == 1.0

    def test_candidate_adjacency_rejects_out_of_range_ids(self):
        kg = KnowledgeGraph(5, [Triple(3, 0, 1)])
        kg.add_weighted_edge(0, 4, 2.0)
        # -2 must not wrap around to entity 3 and report its edge to 1;
        # 5 must not alias the key of another pair.
        for ids in ([-2, 1], [1, 5], [0, -1, 7], [-6, 4]):
            for use_weights in (False, True):
                with pytest.raises(KnowledgeBaseError, match="out of range"):
                    kg.candidate_adjacency(
                        np.array(ids), use_weights=use_weights, pad_id=-1
                    )
        # The pad id itself may lie outside the range.
        adj = kg.candidate_adjacency(np.array([3, 99, 1]), pad_id=99)
        assert adj[0, 2] == adj[2, 0] == 1.0
        assert adj.sum() == 2.0

    def test_candidate_adjacency_same_entity_unlinked(self):
        kg = KnowledgeGraph(5, [Triple(0, 0, 0)])
        ids = np.array([0, 0])
        adj = kg.candidate_adjacency(ids)
        assert adj.sum() == 0.0

    def test_weighted_edges(self):
        kg = KnowledgeGraph(4)
        kg.add_weighted_edge(0, 1, 2.5)
        assert kg.edge_weight(0, 1) == 2.5
        assert kg.edge_weight(1, 0) == 2.5
        assert kg.edge_weight(0, 2) == 0.0

    def test_triple_edge_weight_is_one(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 1)])
        assert kg.edge_weight(0, 1) == 1.0

    def test_negative_weight_rejected(self):
        kg = KnowledgeGraph(4)
        with pytest.raises(KnowledgeBaseError):
            kg.add_weighted_edge(0, 1, -1.0)

    def test_cooccurrence_graph_thresholds(self):
        sentences = [[0, 1]] * 12 + [[0, 2]] * 3
        kg = build_cooccurrence_graph(4, sentences, min_count=10)
        assert kg.edge_weight(0, 1) == pytest.approx(np.log(12))
        assert kg.edge_weight(0, 2) == 0.0


class TestCandidateMap:
    def test_add_and_rank(self):
        cmap = CandidateMap()
        cmap.add("lincoln", 1, 5.0)
        cmap.add("lincoln", 2, 10.0)
        assert cmap.candidate_ids("lincoln") == [2, 1]
        assert cmap.candidate_ids("lincoln", k=1) == [2]

    def test_normalization(self):
        cmap = CandidateMap()
        cmap.add("  Abraham   Lincoln ", 1)
        assert "abraham lincoln" in cmap
        assert cmap.candidate_ids("ABRAHAM LINCOLN") == [1]
        assert normalize_alias(" A  b ") == "a b"

    def test_unknown_alias(self):
        with pytest.raises(UnknownAliasError):
            CandidateMap().candidates("nope")
        assert CandidateMap().get_candidates("nope") == []

    def test_scores_accumulate(self):
        cmap = CandidateMap()
        cmap.add("x", 1, 1.0)
        cmap.add("x", 1, 2.0)
        assert cmap.candidates("x") == [(1, 3.0)]

    def test_prior(self):
        cmap = CandidateMap()
        cmap.add("x", 1, 3.0)
        cmap.add("x", 2, 1.0)
        assert cmap.prior("x", 1) == pytest.approx(0.75)
        assert cmap.prior("x", 9) == 0.0
        assert cmap.prior("zzz", 1) == 0.0

    def test_ambiguity(self):
        cmap = CandidateMap()
        cmap.add("x", 1)
        cmap.add("x", 2)
        assert cmap.ambiguity("x") == 2
        assert cmap.ambiguity("y") == 0

    def test_merge(self):
        a, b = CandidateMap(), CandidateMap()
        a.add("x", 1, 1.0)
        b.add("x", 1, 2.0)
        b.add("y", 3)
        a.merge(b)
        assert a.candidates("x") == [(1, 3.0)]
        assert a.candidate_ids("y") == [3]

    def test_deterministic_tiebreak(self):
        cmap = CandidateMap()
        cmap.add("x", 5, 1.0)
        cmap.add("x", 2, 1.0)
        assert cmap.candidate_ids("x") == [2, 5]

    def test_empty_alias_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            CandidateMap().add("   ", 1)

    def test_stats(self):
        cmap = CandidateMap()
        cmap.add("x", 1)
        cmap.add("x", 2)
        cmap.add("y", 3)
        stats = cmap.stats()
        assert stats["num_aliases"] == 2
        assert stats["mean_ambiguity"] == pytest.approx(1.5)
        assert stats["max_ambiguity"] == 2

    def test_lookups_do_not_sort_per_call(self, monkeypatch):
        """Regression: ranking happens at index build, never per lookup."""
        import repro.kb.aliases as aliases_mod

        cmap = CandidateMap()
        cmap.add("x", 5, 1.0)
        cmap.add("x", 2, 1.0)
        cmap.add("y", 7, 3.0)
        cmap.candidates("x")  # builds the flat index

        def boom(bucket):
            raise AssertionError("per-lookup sort detected")

        monkeypatch.setattr(aliases_mod, "_rank_bucket", boom)
        assert cmap.candidate_ids("x") == [2, 5]
        assert cmap.candidates("y", k=1) == [(7, 3.0)]
        ids, scores = cmap.candidate_arrays("x")
        assert ids.tolist() == [2, 5]
        assert scores.tolist() == [1.0, 1.0]
        # Mutation invalidates; the next lookup re-ranks (and so trips).
        cmap.add("x", 9, 9.0)
        with pytest.raises(AssertionError, match="per-lookup sort"):
            cmap.candidates("x")

    def test_candidate_arrays_matches_candidates(self):
        cmap = CandidateMap()
        cmap.add("alias a", 3, 2.0)
        cmap.add("alias a", 1, 5.0)
        cmap.add("alias b", 8)
        for alias in ("alias a", "alias b"):
            for k in (None, 1, 5):
                ids, scores = cmap.candidate_arrays(alias, k)
                assert list(zip(ids.tolist(), scores.tolist())) == cmap.candidates(
                    alias, k
                )
        unknown_ids, unknown_scores = cmap.candidate_arrays("nope")
        assert unknown_ids.shape == (0,) and unknown_scores.shape == (0,)


def small_world_config(**overrides):
    defaults = dict(num_entities=300, seed=3)
    defaults.update(overrides)
    return WorldConfig(**defaults)


class TestWorldGeneration:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(small_world_config())

    def test_sizes(self, world):
        assert world.kb.num_entities == 300
        assert world.kb.num_types == 40
        assert world.kb.num_relations == 24

    def test_deterministic(self):
        w1 = generate_world(small_world_config())
        w2 = generate_world(small_world_config())
        assert [e.title for e in w1.kb.entities()] == [e.title for e in w2.kb.entities()]
        assert w1.kg.num_triples == w2.kg.num_triples
        assert w1.unseen_entity_ids == w2.unseen_entity_ids

    def test_seed_changes_world(self):
        w1 = generate_world(small_world_config(seed=1))
        w2 = generate_world(small_world_config(seed=2))
        assert [e.type_ids for e in w1.kb.entities()] != [
            e.type_ids for e in w2.kb.entities()
        ]

    def test_every_stem_is_ambiguous_enough(self, world):
        # Stems shared by >= 2 entities dominate; singletons may exist only
        # at the tail end of the partition.
        from collections import Counter

        stem_counts = Counter(e.mention_stem for e in world.kb.entities())
        ambiguous = sum(c for s, c in stem_counts.items() if c >= 2)
        assert ambiguous / world.kb.num_entities > 0.9

    def test_candidate_map_covers_all_stems(self, world):
        for entity in world.kb.entities():
            ids = world.candidate_map.candidate_ids(entity.mention_stem)
            assert entity.entity_id in ids

    def test_candidate_map_ranked_by_popularity(self, world):
        # For stems with multiple candidates, the first candidate must be
        # the most popular (highest mention weight).
        checked = 0
        for entity in world.kb.entities():
            candidates = world.candidate_map.candidate_ids(entity.mention_stem)
            if len(candidates) >= 2:
                weights = world.mention_weights[candidates]
                assert weights[0] == weights.max()
                checked += 1
        assert checked > 0

    def test_no_signal_population(self, world):
        no_signal = [
            e for e in world.kb.entities() if not e.type_ids and not e.relation_ids
        ]
        expected = round(0.03 * 300)
        assert abs(len(no_signal) - expected) <= 2

    def test_unseen_population(self, world):
        assert len(world.unseen_entity_ids) == round(0.05 * 300)
        # Unseen entities are in the unpopular half.
        assert min(world.unseen_entity_ids) >= 150

    def test_year_variants_share_stem_distinct_years(self, world):
        year_entities = [e for e in world.kb.entities() if e.year]
        assert year_entities, "world must contain year-variant entities"
        by_stem: dict[str, list] = {}
        for entity in year_entities:
            by_stem.setdefault(entity.mention_stem, []).append(entity)
        multi = [group for group in by_stem.values() if len(group) >= 2]
        assert multi, "year variants must share stems"
        for group in multi:
            years = [e.year for e in group]
            assert len(set(years)) == len(years)
            for entity in group:
                assert str(entity.year) in entity.title

    def test_granularity_pairs_linked(self, world):
        children = [e for e in world.kb.entities() if e.parent_id >= 0]
        assert children, "world must contain granularity children"
        for child in children:
            parent = world.kb.entity(child.parent_id)
            assert parent.mention_stem == child.mention_stem
            assert world.kg.connected(child.entity_id, parent.entity_id)

    def test_persons_have_gender(self, world):
        person_coarse = COARSE_TYPES.index("person")
        for entity in world.kb.entities():
            if entity.coarse_type_id == person_coarse:
                assert entity.gender in ("m", "f")
            else:
                assert entity.gender == ""

    def test_distinct_tails_property(self, world):
        """Tail entities should mostly carry non-tail types/relations (D.1)."""
        # Approximate entity tail by the bottom half of popularity.
        type_pop = np.zeros(world.kb.num_types)
        rel_pop = np.zeros(world.kb.num_relations)
        for entity in world.kb.entities():
            for t in entity.type_ids:
                type_pop[t] += 1
            for r in entity.relation_ids:
                rel_pop[r] += 1
        head_types = set(np.argsort(type_pop)[-20:])
        head_rels = set(np.argsort(rel_pop)[-12:])
        tail_entities = [
            e for e in world.kb.entities() if e.entity_id >= 150 and e.type_ids
        ]
        with_head_type = sum(
            1 for e in tail_entities if any(t in head_types for t in e.type_ids)
        )
        with_head_rel = sum(
            1
            for e in tail_entities
            if any(r in head_rels for r in e.relation_ids)
        )
        assert with_head_type / len(tail_entities) > 0.75
        assert with_head_rel / len(tail_entities) > 0.75

    def test_triples_respect_coarse_constraints(self, world):
        violations = 0
        for triple in world.kg.triples():
            relation = world.kb.relation_record(triple.relation_id)
            obj = world.kb.entity(triple.object_id)
            if obj.coarse_type_id != relation.object_coarse:
                violations += 1
        # Granularity subclass edges reuse relation 0 and may violate; allow
        # only those.
        children = sum(1 for e in world.kb.entities() if e.parent_id >= 0)
        assert violations <= children

    def test_zipf_weights_monotone(self):
        weights = zipf_weights(100, 1.1)
        assert np.all(np.diff(weights) < 0)
        assert weights[0] == 1.0

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            WorldConfig(num_entities=10).validate()
        with pytest.raises(ConfigError):
            WorldConfig(min_ambiguity=1).validate()
        with pytest.raises(ConfigError):
            WorldConfig(coarse_mixture=(1.0,)).validate()
        with pytest.raises(ConfigError):
            WorldConfig(unseen_fraction=0.9).validate()


def test_runtime_imports_neither_scipy_nor_networkx():
    """The runtime needs numpy only. Loading scipy or networkx would add
    tens of MB to every process, pool workers included, so a fresh
    interpreter that loads the CLI, the annotator, the pool and the KB
    must not have imported either."""
    probe = (
        "import sys\n"
        "import repro.cli, repro.core.annotator, repro.parallel, repro.kb\n"
        "loaded = [m for m in ('scipy', 'networkx') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
