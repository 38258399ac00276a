"""Tests for trainer callbacks, best-checkpoint selection, and logging."""

import logging

import pytest

from repro.core import BootlegConfig, BootlegModel, TrainConfig, Trainer
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.errors import ConfigError
from repro.kb import WorldConfig, generate_world
from repro.utils import enable_console_logging, get_logger


@pytest.fixture(scope="module")
def setup():
    world = generate_world(WorldConfig(num_entities=150, seed=29))
    corpus = generate_corpus(world, CorpusConfig(num_pages=40, seed=29))
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    train = NedDataset(corpus, "train", vocab, world.candidate_map, 4, kgs=[world.kg])
    val = NedDataset(corpus, "val", vocab, world.candidate_map, 4, kgs=[world.kg])
    return world, vocab, counts, train, val


def make_model(setup):
    world, vocab, counts, _, _ = setup
    return BootlegModel(
        BootlegConfig(num_candidates=4), world.kb, vocab,
        entity_counts=counts.counts,
    )


class TestCallbacks:
    def test_callback_invoked_per_epoch(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        seen = []
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=2, batch_size=32),
            callbacks=[lambda tr, stats: seen.append(stats.epoch)],
        )
        trainer.train()
        assert seen == [0, 1]

    def test_callback_receives_trainer(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        received = []
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=1, batch_size=32),
            callbacks=[lambda tr, stats: received.append(tr)],
        )
        trainer.train()
        assert received == [trainer]


class TestBestCheckpoint:
    def test_tracks_best_eval_accuracy(self, setup):
        _, _, _, train, val = setup
        model = make_model(setup)
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=2, batch_size=16, eval_every_steps=5,
                        learning_rate=3e-3),
            eval_dataset=val,
        )
        trainer.train()
        assert trainer.best_eval_accuracy is not None
        assert 0.0 <= trainer.best_eval_accuracy <= 1.0

    def test_no_tracking_without_eval_dataset(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        trainer = Trainer(
            model, train, TrainConfig(epochs=1, batch_size=32, eval_every_steps=5)
        )
        trainer.train()
        assert trainer.best_eval_accuracy is None

    def test_restored_weights_match_best(self, setup):
        """After training, eval accuracy of the restored model must equal
        the recorded best (the best checkpoint was reloaded)."""
        _, _, _, train, val = setup
        model = make_model(setup)
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=2, batch_size=16, eval_every_steps=10,
                        learning_rate=3e-3),
            eval_dataset=val,
        )
        trainer.train()
        model.eval()
        from repro.core import predict

        records = [r for r in predict(model, val) if r.evaluable]
        accuracy = sum(1 for r in records if r.correct) / len(records)
        assert accuracy == pytest.approx(trainer.best_eval_accuracy, abs=1e-9)

    def test_invalid_eval_every(self):
        with pytest.raises(ConfigError):
            TrainConfig(eval_every_steps=-1).validate()


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("core.trainer").name == "repro.core.trainer"
        assert get_logger("repro.kb").name == "repro.kb"

    def test_silent_by_default(self, setup, caplog):
        _, _, _, train, _ = setup
        model = make_model(setup)
        root = logging.getLogger("repro")
        previous_level = root.level
        root.setLevel(logging.WARNING)
        try:
            with caplog.at_level(logging.WARNING, logger="repro"):
                Trainer(model, train, TrainConfig(epochs=1, batch_size=32)).train()
            assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        finally:
            root.setLevel(previous_level)

    def test_epoch_logging_visible_at_info(self, setup, caplog):
        _, _, _, train, _ = setup
        model = make_model(setup)
        with caplog.at_level(logging.INFO, logger="repro"):
            Trainer(model, train, TrainConfig(epochs=1, batch_size=32)).train()
        assert any("epoch 0" in r.message for r in caplog.records)

    def test_enable_console_logging_idempotent(self):
        enable_console_logging()
        enable_console_logging()
        logger = logging.getLogger("repro")
        stream_handlers = [
            h
            for h in logger.handlers
            if type(h) is logging.StreamHandler
        ]
        assert len(stream_handlers) == 1
