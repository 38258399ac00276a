"""Training loop and batched inference for NED models.

Works for any model exposing the protocol used by
:class:`~repro.core.model.BootlegModel` and
:class:`~repro.baselines.ned_base.NedBaseModel`:

- ``forward(batch) -> output`` with an ``output.scores`` tensor (B,M,K),
- ``loss(batch, output) -> Tensor``,
- ``predictions(batch, output) -> np.ndarray`` of entity ids.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from collections.abc import Callable

import repro.obs as obs
from repro.corpus.dataset import NedDataset
from repro.errors import ConfigError, TrainingError
from repro.eval.predictions import MentionPrediction
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import no_grad
from repro.obs.metrics import Histogram
from repro.utils.logging import get_logger

logger = get_logger("core.trainer")


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0
    # Periodic validation (the paper's AIDA fine-tuning protocol evaluates
    # every 25 steps and keeps the best-validation checkpoint). 0 = off.
    eval_every_steps: int = 0

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.eval_every_steps < 0:
            raise ConfigError("eval_every_steps must be non-negative")


@dataclasses.dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    seconds: float
    # Latest validation-probe accuracy observed during this epoch (None
    # when periodic eval is off or no probe fell inside the epoch).
    eval_accuracy: float | None = None


@dataclasses.dataclass
class TrainReport:
    """Per-epoch telemetry summary of one :meth:`Trainer.train` run.

    Histogram summaries (loss, pre/post-clip grad norm, step latency)
    are keyed by epoch and populated only when ``repro.obs`` was enabled
    during training; ``epochs`` and the best-checkpoint fields are
    always filled.
    """

    epochs: list[EpochStats]
    total_steps: int
    total_seconds: float
    best_eval_accuracy: float | None
    best_eval_step: int | None
    loss: dict[int, dict]
    grad_norm_pre: dict[int, dict]
    grad_norm_post: dict[int, dict]
    step_seconds: dict[int, dict]
    # Distribution of whole-epoch wall times; computed from the epoch
    # stats, so it is filled even when obs was disabled.
    epoch_seconds: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready snapshot."""
        return {
            "epochs": [dataclasses.asdict(stats) for stats in self.epochs],
            "total_steps": self.total_steps,
            "total_seconds": self.total_seconds,
            "best_eval_accuracy": self.best_eval_accuracy,
            "best_eval_step": self.best_eval_step,
            "loss": self.loss,
            "grad_norm_pre": self.grad_norm_pre,
            "grad_norm_post": self.grad_norm_post,
            "step_seconds": self.step_seconds,
            "epoch_seconds": self.epoch_seconds,
        }


class Trainer:
    """Adam training with gradient clipping and shuffled batches.

    With an ``eval_dataset`` and ``config.eval_every_steps > 0``, the
    trainer tracks validation accuracy during training and restores the
    best-validation weights at the end — the paper's AIDA fine-tuning
    protocol (Section 4.2).
    """

    def __init__(
        self,
        model,
        dataset: NedDataset,
        config: TrainConfig | None = None,
        eval_dataset: NedDataset | None = None,
        callbacks: list[Callable[["Trainer", EpochStats], None]] | None = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.config.validate()
        self.eval_dataset = eval_dataset
        self.callbacks = list(callbacks or [])
        self._rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 1714636915])
        )
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self.history: list[EpochStats] = []
        self.best_eval_accuracy: float | None = None
        self.best_eval_step: int | None = None
        self.total_steps: int = 0
        # Per-epoch telemetry histograms, shared with the obs registry;
        # populated only while obs.enabled (see _epoch_hist).
        self._hists: dict[tuple[str, int], Histogram] = {}

    def _epoch_hist(self, name: str, epoch: int) -> Histogram:
        key = (name, epoch)
        hist = self._hists.get(key)
        if hist is None:
            # Every call site sits behind an `if observing:` guard, and the
            # names come from the fixed train.* set (see report()).
            hist = obs.metrics.histogram(name, epoch=epoch)  # repro-lint: disable=RA401
            self._hists[key] = hist
        return hist

    def report(self) -> TrainReport:
        """Summarize the run so far (see :class:`TrainReport`)."""

        def summaries(name: str) -> dict[int, dict]:
            return {
                epoch: hist.summary()
                for (hist_name, epoch), hist in sorted(self._hists.items())
                if hist_name == name
            }

        epoch_hist = Histogram()
        for stats in self.history:
            epoch_hist.observe(stats.seconds)
        return TrainReport(
            epochs=list(self.history),
            total_steps=self.total_steps,
            total_seconds=sum(stats.seconds for stats in self.history),
            best_eval_accuracy=self.best_eval_accuracy,
            best_eval_step=self.best_eval_step,
            loss=summaries("train.loss"),
            grad_norm_pre=summaries("train.grad_norm_pre"),
            grad_norm_post=summaries("train.grad_norm_post"),
            step_seconds=summaries("train.step_seconds"),
            epoch_seconds=epoch_hist.summary(),
        )

    def _eval_accuracy(self) -> float:
        """Fraction of evaluable eval mentions disambiguated correctly.

        Restores whatever train/eval mode the model was in, so calling
        this from an eval-mode context doesn't silently re-enable
        dropout.
        """
        was_training = self.model.training
        records = predict(self.model, self.eval_dataset)
        if was_training:
            self.model.train()
        evaluable = [r for r in records if r.evaluable]
        if not evaluable:
            return 0.0
        return sum(1 for r in evaluable if r.correct) / len(evaluable)

    def train(self) -> list[EpochStats]:
        """Run the configured number of epochs; returns per-epoch stats."""
        if len(self.dataset) == 0:
            raise TrainingError("training dataset is empty")
        track_best = (
            self.eval_dataset is not None and self.config.eval_every_steps > 0
        )
        best_state = None
        step = 0
        self.model.train()
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            losses: list[float] = []
            epoch_eval_accuracy: float | None = None
            with obs.span("train.epoch", epoch=epoch):
                for batch in self.dataset.batches(
                    self.config.batch_size, self._rng
                ):
                    observing = obs.enabled
                    step_start = time.perf_counter() if observing else 0.0
                    self.optimizer.zero_grad()
                    output = self.model(batch)
                    loss = self.model.loss(batch, output)
                    loss_value = loss.item()
                    if not np.isfinite(loss_value):
                        raise TrainingError(f"non-finite loss at epoch {epoch}")
                    loss.backward()
                    grad_norm = clip_grad_norm(
                        self.optimizer.parameters, self.config.clip_norm
                    )
                    self.optimizer.step()
                    losses.append(loss_value)
                    step += 1
                    self.total_steps = step
                    if observing:
                        obs.metrics.counter("train.steps").inc()
                        self._epoch_hist("train.loss", epoch).observe(loss_value)
                        self._epoch_hist("train.grad_norm_pre", epoch).observe(
                            grad_norm
                        )
                        self._epoch_hist("train.grad_norm_post", epoch).observe(
                            min(grad_norm, self.config.clip_norm)
                        )
                        self._epoch_hist("train.step_seconds", epoch).observe(
                            time.perf_counter() - step_start
                        )
                    if track_best and step % self.config.eval_every_steps == 0:
                        with obs.span("train.eval", step=step):
                            accuracy = self._eval_accuracy()
                        epoch_eval_accuracy = accuracy
                        if obs.enabled:
                            obs.metrics.counter("train.evals").inc()
                            obs.metrics.gauge("train.eval_accuracy").set(accuracy)
                        if (
                            self.best_eval_accuracy is None
                            or accuracy > self.best_eval_accuracy
                        ):
                            self.best_eval_accuracy = accuracy
                            self.best_eval_step = step
                            best_state = self.model.state_dict()
            stats = EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                seconds=time.perf_counter() - start,
                eval_accuracy=epoch_eval_accuracy,
            )
            self.history.append(stats)
            if obs.enabled:
                obs.metrics.histogram("train.epoch_seconds").observe(
                    stats.seconds
                )
            logger.info(
                "epoch %d: loss %.4f (%.1fs)", stats.epoch, stats.mean_loss,
                stats.seconds,
            )
            for callback in self.callbacks:
                callback(self, stats)
        if track_best:
            # Final evaluation so late improvements are not lost.
            with obs.span("train.eval", step=step):
                accuracy = self._eval_accuracy()
            if obs.enabled:
                obs.metrics.counter("train.evals").inc()
                obs.metrics.gauge("train.eval_accuracy").set(accuracy)
            if self.history:
                self.history[-1].eval_accuracy = accuracy
            if self.best_eval_accuracy is None or accuracy > self.best_eval_accuracy:
                self.best_eval_accuracy = accuracy
                self.best_eval_step = step
                best_state = self.model.state_dict()
            if best_state is not None:
                self.model.load_state_dict(best_state)
                logger.info(
                    "restored best-validation weights: accuracy %.4f from "
                    "step %d",
                    self.best_eval_accuracy,
                    self.best_eval_step,
                )
        self.model.eval()
        return self.history


def predict(model, dataset: NedDataset, batch_size: int = 64) -> list[MentionPrediction]:
    """Run inference over a dataset; returns one record per real mention."""
    return predict_batches(model, dataset.batches(batch_size))


def predict_batches(model, batches) -> list[MentionPrediction]:
    """Run inference over an iterable of :class:`Batch` objects.

    Callers that own their batching (e.g. the annotator, which reuses
    collation buffers) feed batches directly; :func:`predict` is the
    dataset-level convenience wrapper. Record arrays are sliced out of
    one per-batch snapshot, so they stay valid after the caller reuses
    or mutates the batch buffers.

    A training-mode model is put into eval mode; an eval-mode one is
    left alone, so a call walks no module tree. Under ``no_grad`` every
    ``Dropout`` is the identity, so the forward pass reads only the
    root's mode and a submodule's flag cannot change the records.
    """
    if model.training:
        model.eval()
    results: list[MentionPrediction] = []
    with no_grad():
        for batch in batches:
            observing = obs.enabled
            batch_start = time.perf_counter() if observing else 0.0
            with obs.span("infer.batch", sentences=len(batch.sentences)):
                output = model(batch)
                predicted = model.predictions(batch, output)
            if observing:
                obs.metrics.counter("infer.batches").inc()
                obs.metrics.counter("infer.mentions").inc(
                    int(batch.mention_mask.sum())
                )
                obs.metrics.histogram("infer.batch_seconds").observe(
                    time.perf_counter() - batch_start
                )
            # One snapshot per batch instead of per-mention .copy() churn;
            # per-record rows are disjoint views into these snapshots.
            # Prediction records are pinned to float64 regardless of the
            # active compute dtype so downstream metrics stay exact.
            scores = np.array(output.scores.data, dtype=np.float64, copy=True)  # repro-lint: disable=RA201
            candidate_ids = batch.candidate_ids.copy()
            mention_counts = batch.mention_mask.sum(axis=1)
            gold_ids = batch.gold_entity_ids
            evaluable = batch.evaluable
            is_weak = batch.is_weak
            for b, sentence in enumerate(batch.sentences):
                sentence_id = sentence.sentence_id
                pattern = sentence.pattern
                mentions = sentence.mentions
                for m in range(int(mention_counts[b])):
                    results.append(
                        MentionPrediction(
                            sentence_id=sentence_id,
                            mention_index=m,
                            surface=mentions[m].surface,
                            gold_entity_id=int(gold_ids[b, m]),
                            predicted_entity_id=int(predicted[b, m]),
                            candidate_ids=candidate_ids[b, m],
                            candidate_scores=scores[b, m],
                            evaluable=bool(evaluable[b, m]),
                            is_weak=bool(is_weak[b, m]),
                            pattern=pattern,
                        )
                    )
    return results

