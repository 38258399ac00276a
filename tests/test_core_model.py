"""Tests for the Bootleg model, its modules, regularization, and trainer."""

import numpy as np
import pytest

from repro.baselines import NedBaseConfig, NedBaseModel
from repro.core import (
    BootlegConfig,
    BootlegModel,
    Ent2Ent,
    KG2Ent,
    Phrase2Ent,
    TrainConfig,
    Trainer,
    make_scheme,
    predict,
)
from repro.core.regularization import P_MAX, P_MIN
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.errors import ConfigError, TrainingError
from repro.kb import WorldConfig, generate_world
from repro.nn import Tensor


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=200, seed=7))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=40, seed=7))


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocabulary(corpus)


@pytest.fixture(scope="module")
def counts(corpus, world):
    return EntityCounts.from_corpus(corpus, world.num_entities)


@pytest.fixture(scope="module")
def train_dataset(world, corpus, vocab):
    return NedDataset(corpus, "train", vocab, world.candidate_map, 4, kgs=[world.kg])


@pytest.fixture(scope="module")
def model(world, vocab, counts):
    return BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )


class TestRegularizationSchemes:
    def test_none_is_zero(self):
        scheme = make_scheme("none")
        np.testing.assert_allclose(scheme.probabilities(np.array([0, 1, 100])), 0.0)

    def test_fixed(self):
        scheme = make_scheme("fixed", value=0.8)
        np.testing.assert_allclose(scheme.probabilities(np.array([1, 50])), 0.8)

    def test_inv_pop_pow_anchors(self):
        scheme = make_scheme("inv_pop_pow", max_count=10000)
        probs = scheme.probabilities(np.array([1, 10000]))
        assert probs[0] == pytest.approx(P_MAX)
        assert probs[1] == pytest.approx(P_MIN, abs=1e-6)

    def test_inv_pop_pow_matches_paper_exponent(self):
        # f(x) = 0.95 x^-0.32 for max_count=10000 (Appendix B).
        scheme = make_scheme("inv_pop_pow", max_count=10000)
        probs = scheme.probabilities(np.array([100]))
        assert probs[0] == pytest.approx(0.95 * 100**-0.3197, abs=1e-3)

    @pytest.mark.parametrize("name", ["inv_pop_pow", "inv_pop_log", "inv_pop_lin"])
    def test_inverse_schemes_monotone_decreasing(self, name):
        scheme = make_scheme(name, max_count=1000)
        counts = np.array([1, 5, 20, 100, 500, 1000])
        probs = scheme.probabilities(counts)
        assert np.all(np.diff(probs) <= 1e-12)

    def test_pop_pow_monotone_increasing(self):
        scheme = make_scheme("pop_pow", max_count=1000)
        probs = scheme.probabilities(np.array([1, 10, 100, 1000]))
        assert np.all(np.diff(probs) >= -1e-12)

    def test_unseen_gets_maximum(self):
        for name in ("inv_pop_pow", "pop_pow", "inv_pop_log"):
            scheme = make_scheme(name, max_count=100)
            assert scheme.probabilities(np.array([0]))[0] == pytest.approx(P_MAX)

    def test_clipping(self):
        scheme = make_scheme("inv_pop_pow", max_count=100)
        probs = scheme.probabilities(np.array([1, 100, 10**9]))
        assert probs.min() >= P_MIN
        assert probs.max() <= P_MAX

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            make_scheme("dropout")

    def test_invalid_fixed_value(self):
        with pytest.raises(ConfigError):
            make_scheme("fixed", value=1.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("fixed", value=0.5).probabilities(np.array([-1]))

    def test_repr(self):
        assert "fixed" in repr(make_scheme("fixed", value=0.5))
        assert "inv_pop_pow" in repr(make_scheme("inv_pop_pow"))


class TestKG2EntModule:
    def test_shapes_and_skip(self):
        module = KG2Ent()
        entities = Tensor(np.random.default_rng(0).normal(size=(2, 4, 8)))
        adjacency = np.zeros((2, 4, 4))
        out = module(entities, adjacency)
        assert out.shape == (2, 4, 8)

    def test_connected_candidates_mix(self):
        module = KG2Ent(initial_self_weight=0.0, use_skip=False)
        entities = Tensor(np.eye(3)[None, :, :].astype(float))
        adjacency = np.zeros((1, 3, 3))
        adjacency[0, 0, 1] = adjacency[0, 1, 0] = 50.0  # hard edge
        out = module(entities, adjacency)
        # Candidate 0 should now mostly carry candidate 1's representation.
        assert out.data[0, 0, 1] > 0.9

    def test_skip_preserves_input(self):
        module = KG2Ent(use_skip=True)
        entities = Tensor(np.ones((1, 2, 4)))
        out = module(entities, np.zeros((1, 2, 2)))
        assert (out.data >= 1.0).all()

    def test_pad_mask_blocks_attention(self):
        module = KG2Ent(initial_self_weight=0.0, use_skip=False)
        rng = np.random.default_rng(1)
        entities_a = rng.normal(size=(1, 3, 4))
        entities_b = entities_a.copy()
        entities_b[0, 2] = 100.0
        pad = np.array([[False, False, True]])
        adjacency = np.ones((1, 3, 3))
        out_a = module(Tensor(entities_a), adjacency, candidate_pad_mask=pad)
        out_b = module(Tensor(entities_b), adjacency, candidate_pad_mask=pad)
        np.testing.assert_allclose(out_a.data[0, :2], out_b.data[0, :2], atol=1e-9)

    def test_self_weight_is_learnable(self):
        module = KG2Ent()
        entities = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
        out = module(entities, np.random.default_rng(1).random((1, 3, 3)))
        (out**2).sum().backward()
        assert module.self_weight.grad is not None


class TestPhraseAndEntModules:
    def test_phrase2ent_shape(self):
        rng = np.random.default_rng(0)
        module = Phrase2Ent(16, 4, rng, dropout=0.0)
        entities = Tensor(rng.normal(size=(2, 6, 16)))
        words = Tensor(rng.normal(size=(2, 9, 16)))
        assert module(entities, words).shape == (2, 6, 16)

    def test_ent2ent_shape(self):
        rng = np.random.default_rng(0)
        module = Ent2Ent(16, 4, rng, dropout=0.0)
        entities = Tensor(rng.normal(size=(2, 6, 16)))
        assert module(entities).shape == (2, 6, 16)


class TestBootlegModel:
    def test_forward_shapes(self, model, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:3])
        output = model(batch)
        b, m, k = batch.candidate_ids.shape
        assert output.scores.shape == (b, m, k)
        assert output.contextual_entities.shape == (b, m, k, model.config.hidden_dim)
        assert output.type_logits.shape[:2] == (b, m)

    def test_invalid_candidates_get_neg_inf(self, model, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:3])
        output = model(batch)
        masked = output.scores.data[~batch.candidate_mask]
        assert (masked <= -1e8).all()

    def test_predictions_within_candidates(self, model, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:4])
        output = model(batch)
        predicted = model.predictions(batch, output)
        for b in range(batch.size):
            for m in range(batch.candidate_ids.shape[1]):
                if batch.mention_mask[b, m]:
                    assert predicted[b, m] in batch.candidate_ids[b, m]
                else:
                    assert predicted[b, m] == -1

    def test_loss_is_finite_scalar(self, model, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:4])
        output = model(batch)
        loss = model.loss(batch, output)
        assert np.isfinite(loss.item())

    def test_entity_drop_only_in_training(self, model, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:2])
        model.eval()
        assert model._sample_entity_drop(batch.candidate_ids) is None
        model.train()
        drop = model._sample_entity_drop(batch.candidate_ids)
        assert drop is not None and drop.shape == batch.candidate_ids.shape
        model.eval()

    def test_mask_probabilities_follow_counts(self, model, counts):
        probs = model.mask_probabilities
        rare = counts.bucket_ids("tail")
        popular = np.argsort(counts.counts)[-5:]
        assert probs[rare].mean() > probs[popular].mean()

    def test_set_entity_counts_shape_check(self, model):
        with pytest.raises(ConfigError):
            model.set_entity_counts(np.zeros(3))

    def test_ablation_configs_forward(self, world, vocab, counts, train_dataset):
        batch = train_dataset.collate(train_dataset.encoded[:2])
        variants = [
            BootlegConfig(num_candidates=4, use_entity=False, use_relations=False,
                          num_kg_modules=0),
            BootlegConfig(num_candidates=4, use_types=False, use_relations=True,
                          use_type_prediction=False),
            BootlegConfig(num_candidates=4, use_types=False, use_entity=False,
                          use_type_prediction=False),
            BootlegConfig(num_candidates=4, num_layers=2),
            BootlegConfig(num_candidates=4, use_position_encoding=False),
            BootlegConfig(num_candidates=4, use_ensemble_scoring=False),
            BootlegConfig(num_candidates=4, use_title_feature=True),
        ]
        for config in variants:
            variant = BootlegModel(config, world.kb, vocab, entity_counts=counts.counts)
            output = variant(batch)
            assert np.isfinite(
                output.scores.data[batch.candidate_mask]
            ).all(), f"non-finite scores for {config}"

    def test_all_signals_disabled_rejected(self, world, vocab):
        with pytest.raises(ConfigError):
            BootlegModel(
                BootlegConfig(
                    use_entity=False, use_types=False, use_relations=False,
                    use_type_prediction=False,
                ),
                world.kb,
                vocab,
            )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BootlegConfig(num_layers=0).validate()

    def test_frozen_encoder_receives_no_gradient(self, world, vocab, counts, train_dataset):
        config = BootlegConfig(num_candidates=4, freeze_encoder=True, dropout=0.0)
        frozen = BootlegModel(config, world.kb, vocab, entity_counts=counts.counts)
        batch = train_dataset.collate(train_dataset.encoded[:2])
        output = frozen(batch)
        frozen.loss(batch, output).backward()
        assert frozen.encoder.token_embedding.weight.grad is None
        assert frozen.embedder.fuse.weight.grad is not None


class TestNedBase:
    def test_forward_and_loss(self, world, vocab, train_dataset):
        model = NedBaseModel(NedBaseConfig(dropout=0.0), world.kb, vocab)
        batch = train_dataset.collate(train_dataset.encoded[:3])
        output = model(batch)
        assert output.scores.shape == batch.candidate_ids.shape
        assert np.isfinite(model.loss(batch, output).item())

    def test_predictions_respect_mask(self, world, vocab, train_dataset):
        model = NedBaseModel(NedBaseConfig(dropout=0.0), world.kb, vocab)
        batch = train_dataset.collate(train_dataset.encoded[:3])
        predicted = model.predictions(batch, model(batch))
        assert (predicted[~batch.mention_mask] == -1).all()


class TestTrainer:
    def test_loss_decreases(self, world, vocab, counts, train_dataset):
        model = BootlegModel(
            BootlegConfig(num_candidates=4), world.kb, vocab,
            entity_counts=counts.counts,
        )
        trainer = Trainer(
            model, train_dataset, TrainConfig(epochs=3, batch_size=16, learning_rate=3e-3)
        )
        history = trainer.train()
        assert len(history) == 3
        assert history[-1].mean_loss < history[0].mean_loss

    def test_predict_covers_all_mentions(self, world, vocab, counts, train_dataset):
        model = BootlegModel(
            BootlegConfig(num_candidates=4), world.kb, vocab,
            entity_counts=counts.counts,
        )
        predictions = predict(model, train_dataset)
        expected = sum(item.num_mentions for item in train_dataset.encoded)
        assert len(predictions) == expected

    def test_prediction_records_consistent(self, world, vocab, counts, train_dataset):
        model = BootlegModel(
            BootlegConfig(num_candidates=4), world.kb, vocab,
            entity_counts=counts.counts,
        )
        for record in predict(model, train_dataset)[:100]:
            assert record.predicted_entity_id in record.candidate_ids
            assert record.candidate_scores.shape == record.candidate_ids.shape

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0).validate()

    def test_empty_dataset_rejected(self, world, vocab, corpus, counts):
        dataset = NedDataset(corpus, "train", vocab, world.candidate_map, 4)
        dataset.encoded = []
        model = BootlegModel(
            BootlegConfig(num_candidates=4), world.kb, vocab,
            entity_counts=counts.counts,
        )
        with pytest.raises(TrainingError):
            Trainer(model, dataset).train()

    def test_deterministic_training(self, world, vocab, counts, train_dataset):
        def make_and_train():
            model = BootlegModel(
                BootlegConfig(num_candidates=4, seed=11), world.kb, vocab,
                entity_counts=counts.counts,
            )
            Trainer(
                model, train_dataset,
                TrainConfig(epochs=1, batch_size=16, seed=5),
            ).train()
            return model.score_vector.data.copy()

        np.testing.assert_allclose(make_and_train(), make_and_train())
