"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the metrics registry, span tracing/export, the trainer and
annotator instrumentation, the per-module forward profiler, the CLI
telemetry flags, the logging reconfiguration fix, and guards asserting
the disabled-path overhead (forward pass, store row gather, provenance
capture) stays under 5%.
"""

import contextlib
import importlib.util
import json
import logging
import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro import cli
from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
    TrainConfig,
    Trainer,
)
from repro.core.modules import Ent2Ent, KG2Ent, Phrase2Ent
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.kb import WorldConfig, generate_world
from repro.nn import module as nn_module
from repro.nn import no_grad
from repro.obs.metrics import Histogram, MetricsRegistry, metric_key
from repro.obs.trace import SpanTracer
from repro.utils.logging import (
    JsonLogFormatter,
    enable_console_logging,
    parse_level,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module():
    """Import benchmarks/bench_store.py for its workload functions."""
    spec = importlib.util.spec_from_file_location(
        "bench_store", REPO_ROOT / "benchmarks" / "bench_store.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def setup():
    world = generate_world(WorldConfig(num_entities=150, seed=37))
    corpus = generate_corpus(world, CorpusConfig(num_pages=40, seed=37))
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


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        registry.gauge("accuracy").set(0.75)
        snapshot = registry.to_dict()
        assert snapshot["counters"]["requests"] == 5
        assert snapshot["gauges"]["accuracy"] == 0.75

    def test_label_keys(self):
        assert metric_key("loss", {}) == "loss"
        assert metric_key("loss", {"epoch": 2}) == "loss{epoch=2}"
        assert (
            metric_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"
        ), "labels must be sorted for a canonical key"
        registry = MetricsRegistry()
        registry.counter("hits", shard=0).inc()
        registry.counter("hits", shard=1).inc(2)
        counters = registry.to_dict()["counters"]
        assert counters == {"hits{shard=0}": 1, "hits{shard=1}": 2}

    def test_histogram_exact_moments(self):
        hist = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.mean == 2.5

    def test_histogram_quantiles(self):
        hist = Histogram(reservoir_size=2048)
        for value in range(101):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 100.0
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=1.0)

    def test_histogram_reservoir_bounded(self):
        hist = Histogram(reservoir_size=64)
        for value in range(10_000):
            hist.observe(float(value))
        assert len(hist.reservoir) == 64
        assert hist.count == 10_000
        # Reservoir quantiles stay in the observed range and roughly
        # track the uniform stream.
        p50 = hist.quantile(0.5)
        assert 0.0 <= p50 <= 9_999.0
        assert 2_000.0 < p50 < 8_000.0

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p50"] is None

    def test_export_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.5)
        path = tmp_path / "metrics.json"
        registry.export_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["c"] == 3
        assert loaded["histograms"]["h"]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


# ----------------------------------------------------------------------
# Snapshot / merge (cross-process aggregation primitives)
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def test_merge_of_disjoint_snapshots_matches_serial(self):
        """Property: recording a stream across N registries and merging
        their snapshots is equivalent to recording it serially — exact
        for counters, gauges and histogram count/sum/min/max, and within
        reservoir tolerance for quantiles."""
        rng = np.random.default_rng(11)
        values = rng.exponential(scale=0.05, size=4000)
        shards = np.array_split(values, 4)

        serial = MetricsRegistry()
        workers = [MetricsRegistry() for _ in shards]
        for registry, shard in zip(workers, shards):
            for value in shard:
                registry.counter("chunks").inc()
                registry.histogram("chunk_seconds").observe(float(value))
                serial.counter("chunks").inc()
                serial.histogram("chunk_seconds").observe(float(value))
            registry.gauge("last").set(float(shard[-1]))

        merged = MetricsRegistry()
        for registry in workers:
            merged.merge(registry.snapshot())

        want = serial.histogram("chunk_seconds")
        got = merged.histogram("chunk_seconds")
        assert merged.counter("chunks").value == len(values)
        assert got.count == want.count == len(values)
        assert got.total == pytest.approx(want.total)
        assert got.min == want.min
        assert got.max == want.max
        for q in (0.5, 0.9, 0.99):
            # Reservoir quantiles are approximate; both sides sampled
            # the same stream so they must agree within a loose band.
            assert got.quantile(q) == pytest.approx(
                np.quantile(values, q), rel=0.35, abs=0.02)
        # Gauges are last-write-wins per key; the un-relabeled merge
        # keeps a single "last" gauge.
        assert "last" in merged.to_dict()["gauges"]

    def test_merge_relabels_keys(self):
        merged = MetricsRegistry()
        for rank in range(3):
            registry = MetricsRegistry()
            registry.counter("chunks").inc(rank + 1)
            registry.histogram("seconds", kind="infer").observe(0.1)
            merged.merge(registry.snapshot(), worker=rank)
        counters = merged.to_dict()["counters"]
        assert counters == {
            "chunks{worker=0}": 1,
            "chunks{worker=1}": 2,
            "chunks{worker=2}": 3,
        }
        # Existing labels are preserved and the worker label is added.
        hists = merged.to_dict()["histograms"]
        assert set(hists) == {
            "seconds{kind=infer,worker=0}",
            "seconds{kind=infer,worker=1}",
            "seconds{kind=infer,worker=2}",
        }

    def test_exhaustive_merge_is_exact(self):
        """When every reservoir is exhaustive the merge keeps exact
        values, so quantiles are exact too."""
        a, b = Histogram(), Histogram()
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
        for value in (4.0, 5.0):
            b.observe(value)
        a.merge(b.snapshot())
        assert a.count == 5
        assert sorted(a.reservoir) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert a.quantile(1.0) == 5.0

    def test_shipments_are_disjoint_and_merge_under_the_rank(self):
        """A shipment clears what it carries, so merging each one once
        adds up to the worker's stream under ``worker=R`` — decision
        records included."""
        from repro.obs import aggregate, provenance

        with obs.scope(fresh=True) as (metrics, tracer):
            provenance.enable()
            try:
                metrics.counter("chunks").inc(2)
                with obs.span("chunk"):
                    pass
                for sentence in range(3):
                    provenance.record_decision(sentence, 0, tier="model")
                first = aggregate.take_shipment()
                assert metrics.snapshot()["counters"] == {}
                assert tracer.roots == []
                assert provenance.snapshot_records() == []
                metrics.counter("chunks").inc()
                second = aggregate.take_shipment()
                for shipment in (first, second):
                    aggregate.merge_telemetry(shipment, worker=1)
                assert metrics.to_dict()["counters"] == {"chunks{worker=1}": 3}
                assert [span.name for span in tracer.roots] == ["chunk"]
                rows = provenance.recorder().drain()
                assert [row["sentence_id"] for row in rows] == [0, 1, 2]
                assert {row["worker"] for row in rows} == {1}
            finally:
                provenance.reset()

    def test_tracer_snapshot_merge_keeps_pids(self):
        owner, remote = SpanTracer(), SpanTracer()
        with owner.span("local"):
            pass
        with remote.span("worker_chunk"):
            pass
        snapshot = remote.snapshot()
        snapshot["pid"] = 4242
        for span in snapshot["spans"]:
            span["pid"] = 4242
        owner.merge(snapshot)
        events = owner.to_chrome_trace()["traceEvents"]
        assert {e["name"] for e in events} == {"local", "worker_chunk"}
        assert {e["pid"] for e in events} == {os.getpid(), 4242}


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
            with tracer.span("sibling"):
                pass
        roots = tracer.roots
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner", "sibling"]
        assert roots[0].children[0].args == {"detail": 1}
        assert roots[0].duration >= roots[0].children[0].duration

    def test_stack_unwinds_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        # Both spans were closed despite the exception.
        root = tracer.roots[0]
        assert root.end is not None
        assert root.children[0].end is not None
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]

    def test_tree_export(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                time.sleep(0.001)
        tree = tracer.to_dict()
        assert tree["spans"][0]["name"] == "a"
        child = tree["spans"][0]["children"][0]
        assert child["name"] == "b"
        assert child["duration_ms"] >= 1.0

    def test_chrome_export(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("parent"):
            with tracer.span("child", k="v"):
                pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert {e["name"] for e in events} == {"parent", "child"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"ts", "pid", "tid"} <= set(event)
        child = next(e for e in events if e["name"] == "child")
        parent = next(e for e in events if e["name"] == "parent")
        assert child["args"] == {"k": "v"}
        # Child is contained within the parent interval (what Chrome
        # uses to reconstruct nesting on a shared pid/tid).
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3

    def test_reset(self):
        tracer = SpanTracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == []


# ----------------------------------------------------------------------
# obs facade
# ----------------------------------------------------------------------
class TestFacade:
    def test_disabled_by_default(self):
        assert obs.enabled is False

    def test_span_noop_when_disabled(self):
        obs.tracer.reset()
        with obs.span("nothing"):
            pass
        assert obs.tracer.roots == []

    def test_scope_enables_and_restores(self):
        assert obs.enabled is False
        with obs.scope() as (metrics, tracer):
            assert obs.enabled is True
            metrics.counter("inside").inc()
            with obs.span("visible"):
                pass
        assert obs.enabled is False
        assert obs.metrics.to_dict()["counters"]["inside"] == 1
        assert [s.name for s in obs.tracer.roots] == ["visible"]

    def test_scope_fresh_resets(self):
        obs.metrics.counter("stale").inc()
        with obs.scope():
            assert "stale" not in obs.metrics.to_dict()["counters"]


# ----------------------------------------------------------------------
# Module discovery + forward profiler
# ----------------------------------------------------------------------
class TestModuleProfiler:
    def test_nested_list_discovery(self, setup):
        """KG2Ent lives in a list-of-lists; discovery must reach it."""
        model = make_model(setup)
        assert any(
            isinstance(module, KG2Ent) for module in model.modules()
        )
        names = [name for name, _ in model.named_parameters()]
        assert "kg2ent.0.0.self_weight" in names
        # Serialization round-trips the nested parameter too.
        state = model.state_dict()
        assert "kg2ent.0.0.self_weight" in state
        model.load_state_dict(state)

    def test_named_modules_paths(self, setup):
        model = make_model(setup)
        names = dict(model.named_modules())
        assert names[""] is model
        assert isinstance(names["phrase2ent.0"], Phrase2Ent)
        assert isinstance(names["ent2ent.0"], Ent2Ent)
        assert isinstance(names["kg2ent.0.0"], KG2Ent)

    def test_forward_profiling_spans(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        model.eval()
        model.enable_forward_profiling()
        batch = train.collate(train.encoded[:4])

        def nested(span):
            for child in span.children:
                yield child
                yield from nested(child)

        try:
            # The graph forward, then the no-grad one `repro annotate
            # --trace-out` runs.
            for mode in (contextlib.nullcontext(), no_grad()):
                with obs.scope() as (_, tracer), mode:
                    model(batch)
                events = json.dumps(tracer.to_chrome_trace())
                # The submodule spans nest under the root model span.
                root = tracer.roots[0]
                assert root.name == "BootlegModel"
                names = [span.name for span in nested(root)]
                for expected in ("Phrase2Ent[", "Ent2Ent[", "KG2Ent[", "MiniBert["):
                    assert expected in events
                    assert any(name.startswith(expected) for name in names)
            # A no-grad attention block runs on plain arrays: no spans
            # inside it.
            blocks = [
                span for span in nested(root)
                if span.name.startswith("MultiHeadAttention[")
            ]
            assert len(blocks) == 4
            assert all(block.children == [] for block in blocks)
        finally:
            model.disable_forward_profiling()
        assert all(
            module._profile_name is None for module in model.modules()
        )

    def test_profiling_free_when_disabled(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        model.eval()
        model.enable_forward_profiling()
        batch = train.collate(train.encoded[:4])
        obs.tracer.reset()
        model(batch)  # obs disabled: no spans recorded
        assert obs.tracer.roots == []
        model.disable_forward_profiling()


# ----------------------------------------------------------------------
# Trainer instrumentation
# ----------------------------------------------------------------------
class TestTrainerTelemetry:
    def test_metrics_and_report(self, setup):
        _, _, _, train, val = setup
        model = make_model(setup)
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=2, batch_size=16, eval_every_steps=5,
                        learning_rate=3e-3),
            eval_dataset=val,
        )
        with obs.scope() as (metrics, tracer):
            history = trainer.train()
        snapshot = metrics.to_dict()
        assert snapshot["counters"]["train.steps"] == trainer.total_steps > 0
        for name in ("train.loss", "train.grad_norm_pre", "train.grad_norm_post",
                     "train.step_seconds"):
            for epoch in (0, 1):
                summary = snapshot["histograms"][f"{name}{{epoch={epoch}}}"]
                assert summary["count"] > 0
        assert 0.0 <= snapshot["gauges"]["train.eval_accuracy"] <= 1.0
        # Pre-clip norm dominates the post-clip norm.
        pre = snapshot["histograms"]["train.grad_norm_pre{epoch=0}"]
        post = snapshot["histograms"]["train.grad_norm_post{epoch=0}"]
        assert post["max"] <= pre["max"] + 1e-12
        assert post["max"] <= trainer.config.clip_norm + 1e-12
        # Epoch spans were recorded.
        span_names = [s.name for s in tracer.roots]
        assert span_names.count("train.epoch") == 2
        # The report summarizes the same histograms.
        report = trainer.report()
        assert report.total_steps == trainer.total_steps
        assert set(report.loss) == {0, 1}
        assert report.best_eval_accuracy == trainer.best_eval_accuracy
        assert report.best_eval_step == trainer.best_eval_step
        assert report.epochs == history
        as_dict = report.to_dict()
        assert json.dumps(as_dict)  # JSON-serializable
        assert as_dict["epochs"][0]["epoch"] == 0

    def test_epoch_stats_eval_accuracy(self, setup):
        _, _, _, train, val = setup
        model = make_model(setup)
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=2, batch_size=16, eval_every_steps=5,
                        learning_rate=3e-3),
            eval_dataset=val,
        )
        history = trainer.train()
        assert all(stats.eval_accuracy is not None for stats in history)
        assert all(0.0 <= stats.eval_accuracy <= 1.0 for stats in history)
        assert trainer.best_eval_step is not None

    def test_eval_accuracy_none_without_probes(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        trainer = Trainer(model, train, TrainConfig(epochs=1, batch_size=32))
        history = trainer.train()
        assert history[0].eval_accuracy is None
        assert trainer.best_eval_step is None

    def test_restore_logged(self, setup, caplog):
        _, _, _, train, val = setup
        model = make_model(setup)
        trainer = Trainer(
            model,
            train,
            TrainConfig(epochs=1, batch_size=16, eval_every_steps=5,
                        learning_rate=3e-3),
            eval_dataset=val,
        )
        with caplog.at_level(logging.INFO, logger="repro"):
            trainer.train()
        restored = [
            record for record in caplog.records
            if "restored best-validation weights" in record.message
        ]
        assert len(restored) == 1

    def test_no_metrics_when_disabled(self, setup):
        _, _, _, train, _ = setup
        model = make_model(setup)
        obs.metrics.reset()
        Trainer(model, train, TrainConfig(epochs=1, batch_size=32)).train()
        assert obs.metrics.to_dict()["counters"] == {}


# ----------------------------------------------------------------------
# Annotator + cache instrumentation
# ----------------------------------------------------------------------
class TestAnnotatorTelemetry:
    def test_counters_and_coverage(self, setup):
        world, vocab, counts, train, _ = setup
        model = make_model(setup)
        model.eval()
        annotator = BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb,
            kgs=[world.kg], num_candidates=4,
        )
        alias = next(iter(world.candidate_map.aliases()))
        texts = [f"w1 {alias} w2", f"{alias} w3"]
        with obs.scope() as (metrics, tracer):
            annotator.annotate_batch(texts)
            annotator.annotate_batch(texts)
        counters = metrics.to_dict()["counters"]
        assert counters["annotator.documents"] == 4
        assert counters["annotator.mentions_detected"] == 4
        assert counters["annotator.mentions_covered"] == 4
        assert counters["annotator.mentions_annotated"] == 4
        # First forward misses (builds) the static cache, second hits.
        assert counters["entity_cache.rebuild"] == 1
        assert counters["entity_cache.miss"] == 1
        assert counters["entity_cache.hit"] >= 1
        # Collation buffers allocate on the first batch, reuse after.
        assert counters["collate_buffers.alloc"] > 0
        assert counters["collate_buffers.reuse"] > 0
        assert counters["infer.batches"] == 2
        assert counters["infer.mentions"] == 4
        gauges = metrics.to_dict()["gauges"]
        assert gauges["annotator.candidate_coverage"] == 1.0
        hists = metrics.to_dict()["histograms"]
        assert hists["infer.batch_seconds"]["count"] == 2
        span_names = [s.name for s in tracer.roots]
        assert span_names.count("annotator.annotate_batch") == 2
        batch_spans = [
            c for s in tracer.roots for c in s.children
            if c.name == "infer.batch"
        ]
        assert len(batch_spans) == 2

    def test_cache_invalidation_counted(self, setup):
        from repro.nn.tensor import no_grad

        _, _, _, train, _ = setup
        model = make_model(setup)
        model.eval()
        batch = train.collate(train.encoded[:4])
        with obs.scope() as (metrics, _), no_grad():
            model(batch)   # builds the cache (miss)
            model.train()  # invalidates
            model.eval()
            model(batch)   # rebuilds (second miss)
        counters = metrics.to_dict()["counters"]
        assert counters["entity_cache.miss"] == 2
        assert counters["entity_cache.invalidations"] == 1
        assert counters["entity_cache.rebuild"] == 2


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogging:
    def _console_handler(self):
        logger = logging.getLogger("repro")
        return next(
            h for h in logger.handlers
            if type(h) is logging.StreamHandler
        )

    def test_parse_level(self):
        assert parse_level("info") == logging.INFO
        assert parse_level("DEBUG") == logging.DEBUG
        assert parse_level(logging.WARNING) == logging.WARNING
        with pytest.raises(ValueError):
            parse_level("loud")

    def test_second_call_reconfigures_level_and_formatter(self):
        logger = logging.getLogger("repro")
        previous_level = logger.level
        try:
            enable_console_logging(logging.INFO)
            handler = self._console_handler()
            assert not isinstance(handler.formatter, JsonLogFormatter)
            # The early-return path must now honor a new format+level.
            enable_console_logging(logging.DEBUG, json_logs=True)
            handler_after = self._console_handler()
            assert handler_after is handler, "no duplicate handler"
            assert isinstance(handler.formatter, JsonLogFormatter)
            assert logger.level == logging.DEBUG
            # And back to text.
            enable_console_logging(logging.INFO, json_logs=False)
            assert not isinstance(handler.formatter, JsonLogFormatter)
        finally:
            logger.setLevel(previous_level)

    def test_json_formatter_output(self):
        record = logging.LogRecord(
            name="repro.core.trainer", level=logging.INFO, pathname=__file__,
            lineno=1, msg="epoch %d: loss %.4f", args=(3, 0.5), exc_info=None,
        )
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.core.trainer"
        assert payload["message"] == "epoch 3: loss 0.5000"
        assert "ts" in payload


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestCliTelemetry:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_obs")
        world_path = root / "world.npz"
        corpus_path = root / "corpus.npz"
        model_path = root / "model.npz"
        assert cli.main([
            "generate-world", "--entities", "80", "--out", str(world_path),
        ]) == 0
        assert cli.main([
            "generate-corpus", "--world", str(world_path), "--pages", "25",
            "--out", str(corpus_path),
        ]) == 0
        return root, world_path, corpus_path, model_path

    def test_train_and_annotate_emit_telemetry(self, artifacts):
        root, world_path, corpus_path, model_path = artifacts
        train_metrics = root / "train_metrics.json"
        train_trace = root / "train_trace.json"
        code = cli.main([
            "train", "--world", str(world_path), "--corpus", str(corpus_path),
            "--epochs", "1", "--out", str(model_path),
            "--metrics-out", str(train_metrics),
            "--trace-out", str(train_trace),
        ])
        assert code == 0
        assert obs.enabled is False, "CLI must disable obs after export"
        metrics = json.loads(train_metrics.read_text())
        assert metrics["counters"]["train.steps"] > 0
        assert metrics["histograms"]["train.loss{epoch=0}"]["count"] > 0
        assert metrics["histograms"]["train.grad_norm_pre{epoch=0}"]["count"] > 0
        trace = json.loads(train_trace.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "train.epoch" in names
        assert any(name.startswith("Phrase2Ent[") for name in names)
        assert any(name.startswith("Ent2Ent[") for name in names)
        assert any(name.startswith("KG2Ent[") for name in names)

        # Annotate with a known alias; the static entity cache is warmed
        # at startup so request forwards record hits.
        from repro.kb.io import load_world

        alias = next(iter(load_world(world_path).candidate_map.aliases()))
        ann_metrics = root / "ann_metrics.json"
        ann_trace = root / "ann_trace.json"
        code = cli.main([
            "annotate", "--world", str(world_path), "--model", str(model_path),
            "--text", f"w1 {alias} w2",
            "--metrics-out", str(ann_metrics),
            "--trace-out", str(ann_trace),
        ])
        assert code == 0
        metrics = json.loads(ann_metrics.read_text())
        counters = metrics["counters"]
        assert "entity_cache.hit" in counters
        assert "entity_cache.miss" in counters
        assert counters["entity_cache.hit"] >= 1
        assert counters["annotator.mentions_detected"] >= 1
        trace = json.loads(ann_trace.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "annotator.annotate_batch" in names
        assert any(name.startswith("Phrase2Ent[") for name in names)

    def test_flags_accepted_without_output(self, artifacts, capsys):
        root, world_path, _, _ = artifacts
        # --log-level/--json-logs alone must not enable metrics recording.
        code = cli.main([
            "generate-world", "--entities", "60",
            "--out", str(root / "w2.npz"), "--log-level", "warning",
        ])
        assert code == 0
        assert obs.enabled is False


# ----------------------------------------------------------------------
# Disabled-path overhead guard
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_forward_overhead_under_5_percent(self):
        """model(batch) with obs disabled vs. the uninstrumented call path.

        The uninstrumented baseline stubs Module.__call__ back to a bare
        ``self.forward(...)`` dispatch (the pre-telemetry body), so the
        measured delta is exactly the cost of the ``obs.enabled`` guard.
        Reuses bench_store's ``build_perf_setup`` at a smaller scale.
        """
        bench = _load_bench_module()
        perf = bench.build_perf_setup(num_entities=150, num_pages=30)
        model, batch = perf["model"], perf["batch"]
        model.eval()
        from repro.nn.tensor import no_grad

        instrumented_call = nn_module.Module.__call__

        def plain_call(self, *args, **kwargs):
            return self.forward(*args, **kwargs)

        def time_forward(repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                with no_grad():
                    model(batch)
                best = min(best, time.perf_counter() - start)
            return best

        assert obs.enabled is False
        # Warm both paths (cache build, allocator).
        with no_grad():
            model(batch)

        for attempt in range(3):
            guarded = time_forward()
            try:
                nn_module.Module.__call__ = plain_call
                bare = time_forward()
            finally:
                nn_module.Module.__call__ = instrumented_call
            ratio = guarded / bare
            if ratio < 1.05:
                break
        assert ratio < 1.05, (
            f"disabled-path overhead {ratio:.3f}x exceeds the 5% budget"
        )

    def test_store_gather_overhead_under_5_percent(self):
        """store.gather() with obs disabled vs. the bare backend gather.

        The only instrumentation on the hot row-gather path is the
        ``obs.enabled`` branch in ``EntityPayloadStore.gather``; the
        measured delta against ``_gather_static`` must stay inside the
        same 5% budget as the forward pass.
        """
        from repro.store import DensePayloadStore

        rng = np.random.default_rng(0)
        store = DensePayloadStore(
            rng.standard_normal((5000, 256)).astype(np.float32)
        )
        ids = rng.integers(0, 5000, size=512)

        def time_gathers(fn, repeats=5, loops=50):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(loops):
                    fn(ids)
                best = min(best, time.perf_counter() - start)
            return best

        assert obs.enabled is False
        store.gather(ids)  # warm the allocator on both paths
        for attempt in range(3):
            guarded = time_gathers(store.gather)
            bare = time_gathers(store._gather_static)
            ratio = guarded / bare
            if ratio < 1.05:
                break
        assert ratio < 1.05, (
            f"disabled-path gather overhead {ratio:.3f}x exceeds the 5% budget"
        )

    def test_annotate_provenance_overhead_under_5_percent(self):
        """annotate_batch with obs disabled vs. a provenance-free body.

        The baseline swaps the annotator module's reference, the one
        capture site, for a null provenance namespace (inactive flag
        only), so the measured delta is exactly the cost of the capture
        guards. The raising stub doubles as proof that the disabled path
        never does capture work at all.
        """
        from repro.core import annotator as annotator_mod
        from repro.nn import compute_dtype
        from repro.obs import provenance

        bench = _load_bench_module()
        perf = bench.build_perf_setup(num_entities=150, num_pages=30)
        annotator = bench.make_annotator(perf, perf["model32"])
        texts = perf["texts"][:8]

        class _NullProvenance:
            active = False

        def _raise(*args, **kwargs):
            raise AssertionError("provenance capture ran while disabled")

        def time_annotate(repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                annotator.annotate_batch(texts)
                best = min(best, time.perf_counter() - start)
            return best

        assert obs.enabled is False
        assert provenance.active is False
        real_decision = provenance.record_decision
        provenance.record_decision = _raise
        try:
            with compute_dtype(np.float32):
                annotator.annotate_batch(texts)  # warm caches on both paths
                for attempt in range(3):
                    guarded = time_annotate()
                    annotator_mod.provenance = _NullProvenance
                    try:
                        bare = time_annotate()
                    finally:
                        annotator_mod.provenance = provenance
                    ratio = guarded / bare
                    if ratio < 1.05:
                        break
        finally:
            provenance.record_decision = real_decision
        assert ratio < 1.05, (
            f"disabled provenance overhead {ratio:.3f}x exceeds the 5% budget"
        )
