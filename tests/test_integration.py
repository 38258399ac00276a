"""End-to-end integration tests across subsystems.

These exercise the full pipeline at small scale: world → corpus → weak
labels → candidate mining → datasets → training → evaluation →
annotation → serialization, plus failure-injection paths.
"""

import numpy as np
import pytest

from repro.baselines import NedBaseConfig, NedBaseModel, most_popular_predictions
from repro.candgen import mine_candidate_map
from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
    TrainConfig,
    Trainer,
    compressed_embeddings,
    predict,
)
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.errors import TrainingError
from repro.eval import f1_by_bucket, micro_f1
from repro.kb import WorldConfig, generate_world
from repro.nn import load_module, save_module
from repro.weaklabel import weak_label_corpus


@pytest.fixture(scope="module")
def pipeline():
    """A fully trained small pipeline shared by the integration tests."""
    world = generate_world(WorldConfig(num_entities=200, seed=13))
    corpus = generate_corpus(
        world, CorpusConfig(num_pages=120, seed=13, split_fractions=(0.7, 0.15, 0.15))
    )
    corpus, _ = weak_label_corpus(corpus, world.kb)
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    # Use the *mined* candidate map (the honest pipeline), not the
    # generator's ground-truth map.
    candidate_map = mine_candidate_map(corpus, world.kb)
    train = NedDataset(corpus, "train", vocab, candidate_map, 6, kgs=[world.kg])
    val = NedDataset(corpus, "val", vocab, candidate_map, 6, kgs=[world.kg])
    model = BootlegModel(
        BootlegConfig(num_candidates=6), world.kb, vocab,
        entity_counts=counts.counts,
    )
    train_config = TrainConfig(epochs=20, batch_size=16, learning_rate=3e-3)
    Trainer(model, train, train_config).train()
    return {
        "world": world,
        "corpus": corpus,
        "vocab": vocab,
        "counts": counts,
        "candidate_map": candidate_map,
        "train": train,
        "train_config": train_config,
        "val": val,
        "model": model,
    }


@pytest.fixture(scope="module")
def ned_base(pipeline):
    """NED-Base trained like the pipeline's Bootleg model, on its data."""
    model = NedBaseModel(NedBaseConfig(), pipeline["world"].kb, pipeline["vocab"])
    Trainer(model, pipeline["train"], pipeline["train_config"]).train()
    return model


class TestFullPipeline:
    def test_mined_candidates_give_recall(self, pipeline):
        assert pipeline["val"].gold_recall() > 0.9

    def test_model_beats_popularity_prior(self, pipeline):
        model_f1 = micro_f1(predict(pipeline["model"], pipeline["val"]))
        prior_f1 = micro_f1(most_popular_predictions(pipeline["val"]))
        assert model_f1 > prior_f1 + 5

    def test_tail_above_random(self, pipeline):
        buckets = f1_by_bucket(
            predict(pipeline["model"], pipeline["val"]), pipeline["counts"]
        )
        # With >= 2 candidates everywhere, random is <= 50; the trained
        # model should be clearly above it on the tail.
        assert buckets["tail"] > 50

    def test_compression_to_five_percent_stays_near_flat(self, pipeline):
        # Figure 3's shape: keeping only the top 5% of entity rows costs
        # little F1, because the type and KG signals carry the tail.
        model, val, counts = pipeline["model"], pipeline["val"], pipeline["counts"]
        full = f1_by_bucket(predict(model, val), counts)["all"]
        with compressed_embeddings(model, counts.counts, 5):
            compressed = f1_by_bucket(predict(model, val), counts)["all"]
        assert compressed >= full - 5, (full, compressed)

    def test_tail_and_unseen_gap_over_ned_base(self, pipeline, ned_base):
        # Table 2's shape: the type and KG signals carry the tail and
        # unseen entities that NED-Base, which learns entities from
        # their mentions' text alone, misses.
        counts = pipeline["counts"]
        bootleg = f1_by_bucket(predict(pipeline["model"], pipeline["val"]), counts)
        baseline = f1_by_bucket(predict(ned_base, pipeline["val"]), counts)
        assert bootleg["tail"] >= baseline["tail"] + 10, (bootleg, baseline)
        assert bootleg["unseen"] >= baseline["unseen"], (bootleg, baseline)

    def test_training_improves_over_untrained(self, pipeline):
        untrained = BootlegModel(
            BootlegConfig(num_candidates=6),
            pipeline["world"].kb,
            pipeline["vocab"],
            entity_counts=pipeline["counts"].counts,
        )
        untrained_f1 = micro_f1(predict(untrained, pipeline["val"]))
        trained_f1 = micro_f1(predict(pipeline["model"], pipeline["val"]))
        assert trained_f1 > untrained_f1 + 10

    def test_checkpoint_roundtrip_preserves_predictions(self, pipeline, tmp_path):
        path = tmp_path / "bootleg.npz"
        save_module(pipeline["model"], path, metadata={"note": "integration"})
        clone = BootlegModel(
            BootlegConfig(num_candidates=6),
            pipeline["world"].kb,
            pipeline["vocab"],
            entity_counts=pipeline["counts"].counts,
        )
        meta = load_module(clone, path)
        assert meta == {"note": "integration"}
        original = predict(pipeline["model"], pipeline["val"])
        restored = predict(clone, pipeline["val"])
        assert [p.predicted_entity_id for p in original] == [
            p.predicted_entity_id for p in restored
        ]

    def test_annotator_end_to_end(self, pipeline):
        world = pipeline["world"]
        annotator = BootlegAnnotator(
            pipeline["model"],
            pipeline["vocab"],
            pipeline["candidate_map"],
            world.kb,
            kgs=[world.kg],
            num_candidates=6,
        )
        entity = next(
            e for e in world.kb.entities()
            if e.type_ids and pipeline["candidate_map"].ambiguity(e.mention_stem) >= 2
        )
        afford = world.kb.type_record(entity.type_ids[0]).affordance_words[0]
        results = annotator.annotate(f"{afford} {entity.mention_stem} w1")
        assert results
        assert any(a.surface == entity.mention_stem for a in results)

    def test_weak_labels_excluded_from_metrics(self, pipeline):
        records = predict(pipeline["model"], pipeline["train"])
        weak = [r for r in records if r.is_weak]
        assert weak, "training split should contain weak labels"
        assert all(not r.evaluable for r in weak)


class TestFailureInjection:
    def test_non_finite_loss_detected(self, pipeline):
        class ExplodingModel(BootlegModel):
            def loss(self, batch, output):
                bomb = super().loss(batch, output)
                bomb.data = np.array(np.nan)
                return bomb

        model = ExplodingModel(
            BootlegConfig(num_candidates=6),
            pipeline["world"].kb,
            pipeline["vocab"],
            entity_counts=pipeline["counts"].counts,
        )
        trainer = Trainer(
            model, pipeline["train"], TrainConfig(epochs=1, batch_size=16)
        )
        with pytest.raises(TrainingError):
            trainer.train()

    def test_vocabulary_mismatch_handled_as_unknowns(self, pipeline):
        """Sentences full of OOV tokens must not crash inference."""
        from repro.corpus.document import Corpus, Mention, Page, Sentence

        entity = pipeline["world"].kb.entity(0)
        sentence = Sentence(
            0, 0,
            ["completely", "novel", "words", entity.mention_stem],
            [Mention(3, 4, entity.mention_stem, entity.entity_id)],
        )
        corpus = Corpus([Page(0, 0, "test", [sentence])])
        dataset = NedDataset(
            corpus, "test", pipeline["vocab"], pipeline["candidate_map"], 6,
            kgs=[pipeline["world"].kg],
        )
        records = predict(pipeline["model"], dataset)
        assert len(records) == 1
        assert records[0].predicted_entity_id >= 0

    def test_mention_beyond_max_tokens_dropped(self, pipeline):
        from repro.corpus.document import Corpus, Mention, Page, Sentence

        entity = pipeline["world"].kb.entity(0)
        tokens = ["w1"] * 30 + [entity.mention_stem]
        sentence = Sentence(
            0, 0, tokens, [Mention(30, 31, entity.mention_stem, entity.entity_id)]
        )
        corpus = Corpus([Page(0, 0, "test", [sentence])])
        dataset = NedDataset(
            corpus, "test", pipeline["vocab"], pipeline["candidate_map"], 6,
            max_tokens=10,
        )
        # Sentence truncated below the mention start: no mentions remain,
        # so the sentence is dropped entirely.
        assert len(dataset) == 0
