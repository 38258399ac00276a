"""Tests for the inference fast path: float32 compute policy, static
payload caching, batched annotation, and prediction assembly."""

import numpy as np
import pytest

from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
    TrainConfig,
    Trainer,
    predict,
)
from repro.corpus import (
    CollateBuffers,
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.errors import ConfigError
from repro.kb import WorldConfig, generate_world
from repro.kb.aliases import normalize_alias
from repro.nn import compute_dtype, no_grad
from repro.nn.optim import Adam, clip_grad_norm


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
def dataset(world, corpus, vocab):
    return NedDataset(
        corpus, "train", vocab, world.candidate_map, 4, kgs=[world.kg]
    )


def make_model(world, corpus, vocab):
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    return BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )


@pytest.fixture(scope="module")
def model(world, corpus, vocab):
    m = make_model(world, corpus, vocab)
    m.eval()
    return m


@pytest.fixture(scope="module")
def batch(dataset):
    return dataset.collate(dataset.encoded[:16])


def masked_argmax(scores, candidate_ids):
    return np.argmax(np.where(candidate_ids >= 0, scores, -np.inf), axis=-1)


class TestFloat32Policy:
    def test_f32_model_agrees_with_f64(self, world, corpus, vocab, model, batch):
        model32 = make_model(world, corpus, vocab)
        model32.load_state_dict(model.state_dict())
        model32.half_precision()
        model32.eval()
        with no_grad():
            scores64 = model(batch).scores.data
        with no_grad(), compute_dtype(np.float32):
            out32 = model32(batch).scores
        assert out32.data.dtype == np.float32
        valid = batch.candidate_ids >= 0
        np.testing.assert_allclose(
            out32.data[valid], scores64[valid], atol=1e-4
        )
        np.testing.assert_array_equal(
            masked_argmax(out32.data, batch.candidate_ids),
            masked_argmax(scores64, batch.candidate_ids),
        )

    def test_half_precision_casts_parameters(self, world, corpus, vocab):
        m = make_model(world, corpus, vocab)
        m.half_precision()
        assert all(p.data.dtype == np.float32 for p in m.parameters())
        m.full_precision()
        assert all(p.data.dtype == np.float64 for p in m.parameters())

    def test_state_dict_round_trips_across_dtypes(self, world, corpus, vocab):
        original = make_model(world, corpus, vocab)
        reference = original.state_dict()
        half = make_model(world, corpus, vocab)
        half.load_state_dict(reference)
        half.half_precision()
        # An f64 model loading an f32 checkpoint keeps f64 storage and
        # recovers the weights to f32 precision.
        restored = make_model(world, corpus, vocab)
        restored.load_state_dict(half.state_dict())
        for name, value in restored.state_dict().items():
            assert value.dtype == np.float64
            np.testing.assert_allclose(
                value, reference[name], rtol=1e-6, atol=1e-6
            )
        # And an f32 model loading an f64 checkpoint stays f32.
        half.load_state_dict(reference)
        assert all(p.data.dtype == np.float32 for p in half.parameters())

    def test_to_dtype_rejects_non_float(self, model):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            model.to_dtype(np.int64)


class TestStaticPayloadCache:
    def test_cached_matches_uncached_scores(self, model, batch):
        model.embedder.invalidate_static_cache()
        with no_grad():
            model.payload_cache_enabled = False
            slow = model(batch).scores.data
            model.payload_cache_enabled = True
            fast = model(batch).scores.data
        assert model.embedder.static_cache_ready
        valid = batch.candidate_ids >= 0
        np.testing.assert_allclose(fast[valid], slow[valid], atol=1e-10)

    def test_cache_skipped_while_training(self, model, batch):
        model.embedder.invalidate_static_cache()
        model.train()
        output = model(batch)
        assert not model.embedder.static_cache_ready
        model.loss(batch, output).backward()
        model.eval()

    def test_load_state_dict_invalidates(self, world, corpus, vocab, batch):
        m = make_model(world, corpus, vocab)
        m.eval()
        with no_grad():
            m(batch)
        assert m.embedder.static_cache_ready
        perturbed = {
            name: value + 0.01 for name, value in m.state_dict().items()
        }
        m.load_state_dict(perturbed)
        assert not m.embedder.static_cache_ready
        # Predictions after the load must match a cache-free forward.
        with no_grad():
            fast = m(batch).scores.data
            m.payload_cache_enabled = False
            slow = m(batch).scores.data
            m.payload_cache_enabled = True
        valid = batch.candidate_ids >= 0
        np.testing.assert_allclose(fast[valid], slow[valid], atol=1e-10)

    def test_training_step_invalidates(self, world, corpus, vocab, batch):
        m = make_model(world, corpus, vocab)
        m.eval()
        with no_grad():
            before = m(batch).scores.data.copy()
        assert m.embedder.static_cache_ready
        optimizer = Adam(m.parameters(), lr=1e-2)
        m.train()
        assert not m.embedder.static_cache_ready
        output = m(batch)
        m.loss(batch, output).backward()
        clip_grad_norm(optimizer.parameters, 5.0)
        optimizer.step()
        m.eval()
        with no_grad():
            fast = m(batch).scores.data
            m.payload_cache_enabled = False
            slow = m(batch).scores.data
            m.payload_cache_enabled = True
        valid = batch.candidate_ids >= 0
        # The step moved the weights, and the rebuilt cache reflects it.
        assert np.abs(fast - before)[valid].max() > 1e-6
        np.testing.assert_allclose(fast[valid], slow[valid], atol=1e-10)

    def test_cache_rebuilt_per_compute_dtype(self, world, corpus, vocab, batch):
        m = make_model(world, corpus, vocab)
        m.half_precision()
        m.eval()
        with no_grad(), compute_dtype(np.float32):
            m(batch)
        assert m.embedder.payload_store.dtype == np.float32


class TestPredictAssembly:
    def test_record_arrays_are_independent(self, model, dataset):
        records = predict(model, dataset, batch_size=8)
        assert len(records) > 2
        first, second = records[0], records[1]
        original = second.candidate_scores.copy()
        first.candidate_scores[...] = -123.0
        first.candidate_ids[...] = -9
        np.testing.assert_array_equal(second.candidate_scores, original)
        assert second.candidate_ids.min() >= -1

    def test_records_survive_buffer_reuse(self, model, dataset):
        buffers = CollateBuffers()
        from repro.core.trainer import predict_batches

        records = predict_batches(
            model, dataset.batches(4, buffers=buffers)
        )
        reference = predict(model, dataset, batch_size=4)
        assert len(records) == len(reference)
        for got, want in zip(records, reference):
            assert got.sentence_id == want.sentence_id
            assert got.predicted_entity_id == want.predicted_entity_id
            np.testing.assert_array_equal(got.candidate_ids, want.candidate_ids)
            np.testing.assert_allclose(
                got.candidate_scores, want.candidate_scores
            )

    def test_eval_accuracy_restores_model_mode(self, world, corpus, vocab, dataset):
        m = make_model(world, corpus, vocab)
        trainer = Trainer(
            m, dataset, TrainConfig(epochs=0), eval_dataset=dataset
        )
        m.eval()
        trainer._eval_accuracy()
        assert not m.training
        m.train()
        trainer._eval_accuracy()
        assert m.training
        m.eval()


class TestCollateBuffers:
    def test_reuses_matching_allocation(self):
        buffers = CollateBuffers()
        a = buffers.take("x", (4, 8), np.int64, fill=0)
        b = buffers.take("x", (4, 8), np.int64, fill=7)
        assert a is b
        assert (b == 7).all()

    def test_reallocates_on_shape_or_dtype_change(self):
        buffers = CollateBuffers()
        a = buffers.take("x", (4, 8), np.int64, fill=0)
        b = buffers.take("x", (2, 8), np.int64, fill=0)
        assert a is not b
        c = buffers.take("x", (2, 8), np.float64, fill=0.0)
        assert b is not c


class TestBatchedAnnotator:
    @pytest.fixture(scope="class")
    def annotator(self, world, corpus, vocab, model):
        return BootlegAnnotator(
            model,
            vocab,
            world.candidate_map,
            world.kb,
            kgs=[world.kg],
            num_candidates=4,
        )

    @pytest.fixture(scope="class")
    def texts(self, corpus):
        sentences = corpus.sentences("test")[:8]
        return [detokenize(list(s.tokens)) for s in sentences]

    def test_batch_matches_sequential(self, annotator, texts):
        batched = annotator.annotate_batch(texts)
        sequential = [annotator.annotate(text) for text in texts]
        assert len(batched) == len(sequential)
        for got, want in zip(batched, sequential):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.start, g.end) == (w.start, w.end)
                assert g.surface == w.surface
                assert g.entity_id == w.entity_id
                assert g.score == pytest.approx(w.score)
                # Scores can differ by an ulp across batch shapes (BLAS
                # blocking); ranking and titles must match exactly.
                assert [c[0] for c in g.candidates] == [c[0] for c in w.candidates]
                assert [c[1] for c in g.candidates] == pytest.approx(
                    [c[1] for c in w.candidates]
                )

    def test_detection_matches_string_join_reference(self, annotator, corpus):
        def reference_detect(tokens):
            # The pre-index implementation: probe every span, longest
            # first, via candidate-map ambiguity on the joined string.
            spans = []
            position = 0
            while position < len(tokens):
                matched = 0
                for length in range(
                    min(annotator.max_alias_tokens, len(tokens) - position), 0, -1
                ):
                    alias = normalize_alias(
                        " ".join(tokens[position : position + length])
                    )
                    if annotator.candidate_map.ambiguity(alias) > 0:
                        matched = position + length
                        break
                if matched:
                    spans.append((position, matched))
                    position = matched
                else:
                    position += 1
            return spans

        for sentence in corpus.sentences()[:40]:
            tokens = list(sentence.tokens)
            assert annotator.detect_mentions(tokens) == reference_detect(tokens)

    def test_empty_text_rejected(self, annotator):
        with pytest.raises(ConfigError):
            annotator.annotate_batch(["good text", "   "])

    def test_mismatched_spans_rejected(self, annotator):
        with pytest.raises(ConfigError):
            annotator.annotate_batch(["a b"], mention_spans=[None, None])

    def test_doc_without_mentions_gets_empty_list(self, annotator, texts):
        results = annotator.annotate_batch(
            [texts[0], "zzz qqq xxx"], mention_spans=[None, []]
        )
        assert results[1] == []
        assert len(results[0]) == len(annotator.annotate(texts[0]))
