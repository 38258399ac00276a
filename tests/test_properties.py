"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.regularization import P_MAX, P_MIN, make_scheme
from repro.corpus.vocab import Vocabulary
from repro.kb import CandidateMap, KnowledgeGraph, Triple, zipf_weights
from repro.nn import Tensor, concat, cross_entropy
from repro.nn.tensor import _unbroadcast
from repro.utils.rng import spawn_rng
from repro.utils.tables import format_table

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")

small_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def arrays(draw, shape):
    return np.array(
        draw(
            st.lists(
                st.lists(small_floats, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )
        )
    )


class TestTensorProperties:
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_softmax_rows_are_distributions(self, rows, cols, seed):
        data = np.random.default_rng(seed).normal(size=(rows, cols)) * 5
        out = Tensor(data).softmax(axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @given(
        rows=st.integers(1, 5),
        cols=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    def test_log_softmax_consistent_with_softmax(self, rows, cols, seed):
        data = np.random.default_rng(seed).normal(size=(rows, cols)) * 3
        tensor = Tensor(data)
        np.testing.assert_allclose(
            tensor.log_softmax(axis=-1).data,
            np.log(tensor.softmax(axis=-1).data),
            atol=1e-10,
        )

    @given(
        shape=st.sampled_from([(3, 4), (2, 1), (1, 5), (4, 4)]),
        seed=st.integers(0, 100),
    )
    def test_unbroadcast_inverts_broadcast(self, shape, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=shape)
        broadcast = np.broadcast_to(base, (6, *shape))
        reduced = _unbroadcast(broadcast.copy(), shape)
        np.testing.assert_allclose(reduced, base * 6)

    @given(seed=st.integers(0, 500), scale=st.floats(0.1, 5))
    def test_add_mul_gradients_linear(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        (a * scale).sum().backward()
        np.testing.assert_allclose(a.grad, scale)

    @given(
        parts=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        seed=st.integers(0, 100),
    )
    def test_concat_preserves_content(self, parts, seed):
        rng = np.random.default_rng(seed)
        tensors = [Tensor(rng.normal(size=(2, p))) for p in parts]
        merged = concat(tensors, axis=-1)
        assert merged.shape == (2, sum(parts))
        offset = 0
        for tensor, width in zip(tensors, parts):
            np.testing.assert_allclose(
                merged.data[:, offset : offset + width], tensor.data
            )
            offset += width

    @given(
        num_classes=st.integers(2, 8),
        batch=st.integers(1, 6),
        seed=st.integers(0, 200),
    )
    def test_cross_entropy_nonnegative_and_uniform_bound(self, num_classes, batch, seed):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(batch, num_classes)))
        targets = rng.integers(0, num_classes, size=batch)
        loss = cross_entropy(logits, targets).item()
        assert loss >= 0
        uniform = cross_entropy(
            Tensor(np.zeros((batch, num_classes))), targets
        ).item()
        np.testing.assert_allclose(uniform, np.log(num_classes), atol=1e-12)


class TestCandidateMapProperties:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 20), st.floats(0.01, 100)),
            min_size=1,
            max_size=20,
        )
    )
    def test_ranking_sorted_by_total_score(self, entries):
        cmap = CandidateMap()
        for entity_id, score in entries:
            cmap.add("alias", entity_id, score)
        ranked = cmap.candidates("alias")
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        totals: dict[int, float] = {}
        for entity_id, score in entries:
            totals[entity_id] = totals.get(entity_id, 0.0) + score
        assert dict(ranked) == pytest.approx(totals)

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 10), st.floats(0.01, 10)),
            min_size=1,
            max_size=10,
        ),
        k=st.integers(1, 5),
    )
    def test_topk_is_prefix_of_full_ranking(self, entries, k):
        cmap = CandidateMap()
        for entity_id, score in entries:
            cmap.add("x", entity_id, score)
        full = cmap.candidate_ids("x")
        assert cmap.candidate_ids("x", k) == full[:k]

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 10), st.floats(0.01, 10)),
            min_size=1,
            max_size=10,
        )
    )
    def test_priors_form_distribution(self, entries):
        cmap = CandidateMap()
        for entity_id, score in entries:
            cmap.add("x", entity_id, score)
        ids = cmap.candidate_ids("x")
        total = sum(cmap.prior("x", entity_id) for entity_id in ids)
        assert total == pytest.approx(1.0)


class TestKnowledgeGraphProperties:
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(0, 9)),
            max_size=20,
        )
    )
    def test_adjacency_symmetric(self, edges):
        kg = KnowledgeGraph(10, [Triple(s, r, o) for s, r, o in edges])
        for a in range(10):
            for b in range(10):
                assert kg.connected(a, b) == kg.connected(b, a)

    @given(
        # (a, b, None) is a triple; (a, b, weight) a weighted edge.
        edges=st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7), st.none() | st.floats(0, 10)
            ),
            max_size=20,
        ),
        split=st.integers(0, 20),
        ids=st.lists(st.integers(-1, 7), min_size=2, max_size=8),
    )
    @example(
        # A pair with both kinds of edge, self-pairs of both kinds, and
        # both kinds added after the first query.
        edges=[
            (2, 5, None), (5, 2, 0.5), (3, 3, None), (4, 4, 2.0), (1, 6, 1.5),
            (1, 4, None),
        ],
        split=2,
        ids=[2, 5, 3, 3, 4, 4, 1, 6, -1],
    )
    def test_candidate_adjacency_symmetric_nonnegative(self, edges, split, ids):
        """Every cell equals the dict reference, before and after edges
        are added (the cached edge index must not go stale)."""
        kg = KnowledgeGraph(8)
        ids = np.array(ids)

        def add(batch):
            for a, b, weight in batch:
                if weight is None:
                    kg.add_triple(Triple(a, 0, b))
                else:
                    kg.add_weighted_edge(a, b, weight)

        def check():
            for use_weights in (False, True):
                matrix = kg.candidate_adjacency(ids, use_weights=use_weights)
                assert matrix.dtype == np.float64
                assert matrix.shape == (len(ids), len(ids))
                np.testing.assert_array_equal(matrix, matrix.T)
                assert (matrix >= 0).all()
                for i, a in enumerate(ids.tolist()):
                    for j, b in enumerate(ids.tolist()):
                        if a == -1 or b == -1 or a == b:
                            expected = 0.0
                        elif use_weights:
                            expected = kg.edge_weight(a, b)
                        else:
                            expected = 1.0 if kg.connected(a, b) else 0.0
                        assert matrix[i, j] == expected, (i, j, use_weights)

        add(edges[:split])
        check()
        add(edges[split:])
        check()


class TestRegularizationProperties:
    @given(
        name=st.sampled_from(["inv_pop_pow", "inv_pop_log", "inv_pop_lin", "pop_pow"]),
        counts=st.lists(st.integers(0, 100000), min_size=1, max_size=30),
        max_count=st.integers(2, 100000),
    )
    def test_probabilities_bounded(self, name, counts, max_count):
        scheme = make_scheme(name, max_count=max_count)
        probs = scheme.probabilities(np.array(counts))
        assert (probs >= P_MIN - 1e-12).all()
        assert (probs <= P_MAX + 1e-12).all()

    @given(counts=st.lists(st.integers(1, 10000), min_size=2, max_size=20))
    def test_inverse_schemes_order_preserving(self, counts):
        scheme = make_scheme("inv_pop_pow", max_count=10000)
        arr = np.array(sorted(counts))
        probs = scheme.probabilities(arr)
        assert (np.diff(probs) <= 1e-12).all()


class TestVocabularyProperties:
    @given(tokens=st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=5), max_size=30))
    def test_encode_decode_roundtrip(self, tokens):
        vocab = Vocabulary.build([tokens])
        ids = vocab.encode(tokens)
        assert vocab.decode(ids) == tokens

    @given(tokens=st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=20))
    def test_ids_dense_and_unique(self, tokens):
        vocab = Vocabulary.build([tokens])
        ids = {vocab.encode_token(t) for t in tokens}
        assert all(0 <= i < len(vocab) for i in ids)


class TestMiscProperties:
    @given(n=st.integers(1, 500), exponent=st.floats(0.1, 3))
    def test_zipf_weights_decreasing_positive(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert (weights > 0).all()
        assert (np.diff(weights) <= 0).all()

    @given(seed=st.integers(0, 10000))
    def test_spawn_rng_reproducible_and_label_sensitive(self, seed):
        a1 = spawn_rng(seed, "x").random(4)
        a2 = spawn_rng(seed, "x").random(4)
        b = spawn_rng(seed, "y").random(4)
        np.testing.assert_allclose(a1, a2)
        assert not np.allclose(a1, b)

    @given(
        rows=st.lists(
            st.tuples(
                st.text(alphabet="abc xyz", max_size=6),
                st.floats(0, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_format_table_row_count(self, rows):
        text = format_table(["a", "b"], [list(r) for r in rows])
        assert len(text.splitlines()) == 2 + len(rows)
