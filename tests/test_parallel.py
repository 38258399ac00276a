"""Tests for repro.parallel: shm payload plane and annotator pool.

The determinism tests are the heart of this module: the pool must be a
pure throughput optimization, returning byte-identical results to the
serial path for any worker count and any chunking. ``make check`` runs
this module a second time under ``REPRO_PARALLEL_START_METHOD=spawn`` to
enforce the stricter pickling contract.
"""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.cascade import TIER_HEURISTIC, TIER_MODEL, CascadePolicy
from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
)
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.corpus.dataset import CANDIDATE_PAD, MAX_TOKENS, encodable_mentions
from repro.corpus.document import Mention, Sentence
from repro.corpus.tokenizer import tokenize
from repro.errors import ConfigError, ParallelError
from repro.kb import WorldConfig, generate_world
from repro.nn import compute_dtype
from repro.parallel import (
    AnnotatorPool,
    AttachedArrays,
    SharedArrayStore,
    shared_memory_available,
)
from repro.parallel.pool import _Task, _WorkerRuntime
from repro.parallel.shm import _ALIGNMENT

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)

# Escalates part of the 120-entity world's mentions (tiny worlds'
# priors are otherwise confident enough to answer everything).
STRICT = CascadePolicy(margin=0.8, prior_mass=0.85)


# ----------------------------------------------------------------------
# Shared fixtures: one small world, model, annotator, pool per module
# ----------------------------------------------------------------------
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
def model(world, corpus, vocab):
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    model = BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def annotator(world, vocab, model):
    return BootlegAnnotator(
        model,
        vocab,
        world.candidate_map,
        world.kb,
        kgs=[world.kg],
        num_candidates=4,
        batch_size=4,
    )


@pytest.fixture(scope="module")
def texts(corpus, annotator):
    # 18 mention-bearing texts with 4 mention-free ones among them: the
    # model never sees a mention-free document, so it must not move a
    # batch boundary.
    candidates = [
        detokenize(list(s.tokens)) for s in corpus.sentences("test")[:12]
    ]
    kept = [t for t in candidates if annotator.detect_mentions(tokenize(t))]
    assert len(kept) >= 6, "test corpus must yield mention-bearing texts"
    texts = (kept * 3)[:18]
    for position in (2, 7, 13, 21):
        texts.insert(position, f"w{position} w1 w2 , w3 w4")
    assert sum(not annotator.detect_mentions(tokenize(t)) for t in texts) == 4
    return texts


@pytest.fixture(scope="module")
def pool(annotator):
    with compute_dtype(np.float32):
        with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
            assert not pool.serial, "pool fell back to serial unexpectedly"
            yield pool


@pytest.fixture(scope="module")
def eval_sentences(world, annotator):
    """Labelled sentences whose plan holds several batches, with three
    mention-free sentences among them."""
    sentences = list(
        generate_corpus(world, CorpusConfig(num_pages=10, seed=11)).sentences(
            "test"
        )
    )
    for position in (1, 6, 11):
        sentences.insert(position, _sentence(10_000 + position, 5, []))
    assert len(annotator.plan(sentences)) >= 3
    return sentences


def annotations_equal(a, b):
    assert len(a) == len(b)
    for doc_a, doc_b in zip(a, b):
        assert [dataclasses.asdict(m) for m in doc_a] == [
            dataclasses.asdict(m) for m in doc_b
        ]


def records_identical(a, b):
    """Every MentionPrediction field equal; arrays bit for bit."""
    assert len(a) == len(b)
    for record_a, record_b in zip(a, b):
        for field in dataclasses.fields(record_a):
            value_a = getattr(record_a, field.name)
            value_b = getattr(record_b, field.name)
            if isinstance(value_a, np.ndarray):
                assert value_a.dtype == value_b.dtype, field.name
                assert np.array_equal(value_a, value_b), field.name
            else:
                assert value_a == value_b, field.name


# ----------------------------------------------------------------------
# Shared-memory payload plane
# ----------------------------------------------------------------------
class TestSharedArrayStore:
    def test_export_attach_roundtrip(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.normal(size=(7, 3)),
            "b": np.arange(11, dtype=np.int64),
            "c": rng.normal(size=(2, 5, 4)).astype(np.float32),
        }
        with SharedArrayStore.export(arrays) as store:
            manifest = store.manifest
            assert manifest.keys() == ["a", "b", "c"]
            for entry in manifest.entries:
                assert entry.offset % _ALIGNMENT == 0
            attached = AttachedArrays(manifest, unregister_tracker=False)
            for key, original in arrays.items():
                view = attached[key]
                assert view.dtype == original.dtype
                assert np.array_equal(view, original)
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[...] = 0
            attached.close()

    def test_attach_missing_block_raises(self):
        with SharedArrayStore.export({"x": np.zeros(3)}) as store:
            manifest = store.manifest
        # Store closed and unlinked: attaching must fail loudly.
        with pytest.raises(ParallelError):
            AttachedArrays(manifest, unregister_tracker=False)

    def test_manifest_is_picklable(self):
        import pickle

        with SharedArrayStore.export({"x": np.ones((2, 2))}) as store:
            clone = pickle.loads(pickle.dumps(store.manifest))
            assert clone == store.manifest


# ----------------------------------------------------------------------
# Annotator pool determinism
# ----------------------------------------------------------------------
class TestAnnotatorPool:
    def test_annotate_identical_to_serial(self, annotator, texts, pool):
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts)
            parallel = pool.annotate_batch(texts)
        annotations_equal(serial, parallel)

    def test_annotate_identical_under_uneven_chunks(
        self, annotator, texts, pool
    ):
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts)
            # 18 mention-bearing texts plan to 5 batches of 4: tasks of
            # 2/2/1 batches, one task per batch, and one task holding
            # every batch (worker 1 gets only mention-free documents).
            for chunk_size in (2, 1, 7):
                parallel = pool.annotate_batch(texts, chunk_size=chunk_size)
                annotations_equal(serial, parallel)

    def test_annotate_identical_in_float64(self, annotator, texts):
        # The package default dtype; the module's pool runs float32.
        serial = annotator.annotate_batch(texts)
        with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
            assert not pool.serial
            parallel = pool.annotate_batch(texts)
        annotations_equal(serial, parallel)

    def test_empty_input_returns_empty(self, pool):
        assert pool.annotate_batch([]) == []

    def test_empty_input_still_validates_spans(self, annotator, pool):
        # An empty call checks its span count like the serial annotator,
        # on the multi-worker and the serial pool paths alike.
        with AnnotatorPool.from_annotator(annotator, workers=1) as serial_pool:
            for target in (pool, serial_pool):
                with pytest.raises(
                    ConfigError, match="mention_spans has 1 entries for 0 texts"
                ):
                    target.annotate_batch([], mention_spans=[[(0, 1)]])

    def test_predict_sentences_identical_to_serial(
        self, world, vocab, model, annotator, pool, eval_sentences
    ):
        cascade = BootlegAnnotator(
            model,
            vocab,
            world.candidate_map,
            world.kb,
            kgs=[world.kg],
            num_candidates=4,
            batch_size=4,
            cascade=STRICT,
        )
        assert len(cascade.plan(eval_sentences)) >= 2
        with compute_dtype(np.float32):
            serial = annotator.predict_sentences(eval_sentences)
            parallel = pool.predict_sentences(eval_sentences)
            records_identical(serial, parallel)
            serial = cascade.predict_sentences(eval_sentences)
            with AnnotatorPool.from_annotator(cascade, workers=2) as cascade_pool:
                assert not cascade_pool.serial
                parallel = cascade_pool.predict_sentences(eval_sentences)
        records_identical(serial, parallel)
        tiers: dict[int, set[str]] = {}
        for record in serial:
            tiers.setdefault(record.sentence_id, set()).add(record.tier)
        assert {TIER_HEURISTIC} in tiers.values(), "no tier-0-only sentence"
        assert any(TIER_MODEL in found for found in tiers.values())

    def test_workers_leq_one_is_serial_mode(
        self, annotator, texts, eval_sentences
    ):
        with compute_dtype(np.float32):
            pool = AnnotatorPool.from_annotator(annotator, workers=1)
            try:
                assert pool.serial
                serial = annotator.annotate_batch(texts[:4])
                result = pool.annotate_batch(texts[:4])
                records = pool.predict_sentences(eval_sentences)
            finally:
                pool.close()
            serial_records = annotator.predict_sentences(eval_sentences)
        annotations_equal(serial, result)
        records_identical(serial_records, records)

    def test_mention_spans_validated_and_honored(self, annotator, texts, pool):
        spans = [None] * len(texts)
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts, spans)
            parallel = pool.annotate_batch(texts, spans, chunk_size=5)
        annotations_equal(serial, parallel)

    def test_bad_input_raises_config_error_before_dispatch(
        self, annotator, texts, pool, monkeypatch
    ):
        def dispatch(_tasks):
            raise AssertionError("bad input must not reach the workers")

        monkeypatch.setattr(pool, "_execute", dispatch)
        overlapping = [[(0, 2), (1, 3)]] + [None] * (len(texts) - 1)
        for args in (([texts[0], "   "], None), (texts, overlapping)):
            with pytest.raises(ConfigError):
                annotator.annotate_batch(*args)
            with pytest.raises(ConfigError):
                pool.annotate_batch(*args)


# ----------------------------------------------------------------------
# The annotator's batch plan (what the pool's exactness rests on)
# ----------------------------------------------------------------------
def _sentence(sentence_id, num_tokens, mention_starts):
    tokens = [f"w{i}" for i in range(num_tokens)]
    mentions = [
        Mention(start, start + 1, tokens[start], CANDIDATE_PAD)
        for start in mention_starts
    ]
    return Sentence(sentence_id, 0, tokens, mentions)


@pytest.fixture(scope="module")
def shaped_sentences():
    """40 sentences of 6-129 tokens with 0-3 mentions (ties included),
    plus one whose only mention lies past the encoder window."""
    rng = np.random.default_rng(3)
    sentences = [
        _sentence(
            index,
            int(rng.choice([6, 9, 40, 129])),
            [0, 2, 4][: int(rng.integers(0, 4))],
        )
        for index in range(40)
    ]
    sentences.insert(17, _sentence(40, MAX_TOKENS + 20, [MAX_TOKENS + 5]))
    return sentences


def _plan_key(sentence):
    return (
        len(encodable_mentions(sentence)),
        min(len(sentence.tokens), MAX_TOKENS),
    )


class TestBatchPlan:
    def test_sorted_by_shape_stable_on_ties(self, annotator, shaped_sentences):
        plan = annotator.plan(shaped_sentences)
        order = [index for batch in plan for index in batch]
        keys = [_plan_key(shaped_sentences[index]) for index in order]
        assert keys == sorted(keys)
        assert len(set(keys)) < len(keys), "fixture must hold ties"
        for (a, key_a), (b, key_b) in zip(
            zip(order, keys), zip(order[1:], keys[1:])
        ):
            if key_a == key_b:
                assert a < b
        assert [len(batch) for batch in plan[:-1]] == [
            annotator.batch_size
        ] * (len(plan) - 1)

    def test_no_mention_free_sentence_planned(self, annotator, shaped_sentences):
        planned = {index for batch in annotator.plan(shaped_sentences) for index in batch}
        assert planned == {
            index
            for index, sentence in enumerate(shaped_sentences)
            if encodable_mentions(sentence)
        }
        assert 17 not in planned  # its one mention is past the window
        assert annotator.plan([_sentence(0, 5, [])]) == []

    def test_whole_batches_replan_to_themselves(self, annotator, shaped_sentences):
        plan = annotator.plan(shaped_sentences)
        assert len(plan) >= 4
        planned = {index for batch in plan for index in batch}
        unplanned = [
            index for index in range(len(shaped_sentences)) if index not in planned
        ]
        assert unplanned
        for start in range(len(plan)):
            for stop in range(start + 1, len(plan) + 1):
                chosen = plan[start:stop]
                docs = sorted(
                    [index for batch in chosen for index in batch]
                    + unplanned[start::2]
                )
                replan = annotator.plan([shaped_sentences[i] for i in docs])
                assert [[docs[j] for j in batch] for batch in replan] == chosen


class TestPoolFaultTolerance:
    def test_crash_respawns_and_retries_then_errors(
        self, annotator, texts, pool
    ):
        # A task that hard-kills its worker: retried once on the
        # respawned worker, then surfaced as a structured error.
        with pytest.raises(ParallelError) as excinfo:
            pool._execute([_Task(0, "crash", None)])
        assert 0 in excinfo.value.task_errors
        assert "retry budget" in excinfo.value.task_errors[0]
        # The pool must remain fully usable afterwards.
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts[:6])
            parallel = pool.annotate_batch(texts[:6], chunk_size=1)
        annotations_equal(serial, parallel)

    def test_worker_dying_mid_reply_does_not_block_the_others(
        self, annotator, texts, pool
    ):
        # Worker 0 writes half of its reply and dies, on the first try
        # and on the retry. Worker 1's task must still settle: the call
        # returns with task 0 as its only failure.
        tasks = [
            _Task(0, "die_mid_reply", "x" * 200_000),
            _Task(1, "annotate", (texts[:6], None, list(range(6)))),
        ]
        with pytest.raises(ParallelError) as excinfo:
            pool._execute(tasks)
        assert list(excinfo.value.task_errors) == [0]
        assert "retry budget" in excinfo.value.task_errors[0]
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts[:6])
            parallel = pool.annotate_batch(texts[:6], chunk_size=1)
        annotations_equal(serial, parallel)

    def test_task_exception_is_structured_not_retried(self, pool):
        with pytest.raises(ParallelError) as excinfo:
            pool._execute([_Task(0, "no-such-kind", None)])
        assert "unknown task kind" in excinfo.value.task_errors[0]


class TestWorkerZeroCopy:
    def test_worker_runtime_reads_the_shared_block_in_place(self, pool):
        """A rehydrated worker holds views of the shm block, not copies.

        Builds the worker runtime from the pool's own spec in this
        process and checks every parameter and payload-store component
        against its array in the attached block.
        """
        runtime = _WorkerRuntime(pool._spec)
        attached = runtime.attached
        try:
            model = runtime.model
            store = model.embedder.payload_store
            in_use = {
                **{f"param.{n}": p.data for n, p in model.named_parameters()},
                **{f"store.{n}": a for n, a in store.export_arrays().items()},
            }
            assert sorted(in_use) == sorted(attached.manifest.keys())
            copied = [
                key
                for key, array in in_use.items()
                if not np.shares_memory(array, attached[key])
            ]
        finally:
            # Every view must be gone before the mapping closes.
            model = store = in_use = runtime.model = runtime.annotator = None
            attached.close()
        assert copied == []


# ----------------------------------------------------------------------
# Empty-input guard on the serial annotator (regression)
# ----------------------------------------------------------------------
class TestEmptyAnnotateGuard:
    def test_empty_returns_empty_without_model_or_metrics(self, annotator):
        real_model = annotator.model
        annotator.model = None  # any model touch would AttributeError
        try:
            with obs.scope(fresh=True) as (metrics, tracer):
                assert annotator.annotate_batch([]) == []
                snapshot = metrics.to_dict()
        finally:
            annotator.model = real_model
        assert "annotator.documents" not in snapshot["counters"]
        assert "infer.batch_seconds" not in snapshot["histograms"]

    def test_span_count_mismatch_still_raises(self, annotator):
        with pytest.raises(ConfigError):
            annotator.annotate_batch([], mention_spans=[[(0, 1)]])


# ----------------------------------------------------------------------
# An obs lock held by another owner thread at fork() (regression)
# ----------------------------------------------------------------------
# Run in a child interpreter: on failure the pool's workers wait on the
# inherited lock forever, so the test kills the child's whole session.
_FORK_LOCK_SCRIPT = """
import sys, threading
import repro.obs as obs
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.corpus import CorpusConfig, build_vocabulary, detokenize, generate_corpus
from repro.kb import WorldConfig, generate_world
from repro.parallel import AnnotatorPool, pool as pool_module

instrument = sys.argv[1]
pool_module._STARTUP_TIMEOUT = 20.0
world = generate_world(WorldConfig(num_entities=60, seed=3))
corpus = generate_corpus(world, CorpusConfig(num_pages=12, seed=3))
vocab = build_vocabulary(corpus)
model = BootlegModel(BootlegConfig(num_candidates=4, dropout=0.0), world.kb, vocab)
model.eval()
annotator = BootlegAnnotator(
    model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
    num_candidates=4, batch_size=4,
)
texts = [detokenize(list(s.tokens)) for s in corpus.sentences("test")[:16]]
# Builds the payload cache too, so the pool opens no span of its own.
serial = annotator.annotate_batch(texts)
if instrument == "tracer":
    obs.enable()  # workers open a root span per task only when observing
lock = getattr(obs, instrument)._lock
held, release = threading.Event(), threading.Event()

def hold():
    # A /metrics scrape or a sampler tick, caught mid-way by fork().
    with lock:
        held.set()
        release.wait()

threading.Thread(target=hold, daemon=True).start()
held.wait()
pool = AnnotatorPool.from_annotator(annotator, 2, start_method="fork")
release.set()
with pool:
    assert not pool.serial, "workers never became ready"
    pooled = pool.annotate_batch(texts)
assert [[m.entity_id for m in doc] for doc in pooled] == [
    [m.entity_id for m in doc] for doc in serial
]
print("ok")
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
@pytest.mark.parametrize("instrument", ["metrics", "tracer"])
def test_pool_survives_an_obs_lock_held_at_fork(instrument):
    # metrics: the worker's obs.reset() takes the registry lock before
    # it reports ready. tracer: its first root span takes the tracer
    # lock mid-call, where the owner waits with no deadline.
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.Popen(
        [sys.executable, "-c", _FORK_LOCK_SCRIPT, instrument],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"pool hung on an obs.{instrument} lock held at fork()")
    assert child.returncode == 0 and out.strip() == "ok", err
