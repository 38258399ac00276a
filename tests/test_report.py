"""Tests for run reports and cross-process telemetry aggregation.

Covers slice scoring, the RunReport manifest (build/save/load/HTML),
report diffing with regression gating, the pool-side telemetry merge
(per-worker histograms + one multi-pid Chrome trace), and the CLI
surface (``repro evaluate --report-out/--report-html`` and ``repro
report show/html/diff``). ``make check`` reruns this module under
``REPRO_PARALLEL_START_METHOD=spawn``; everything crossing the process
boundary must survive the stricter pickling contract.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro import cli
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    build_vocabulary,
    generate_corpus,
)
from repro.errors import ReproError
from repro.eval.predictions import MentionPrediction
from repro.kb import WorldConfig, generate_world
from repro.nn import compute_dtype
from repro.obs.metrics import parse_metric_key
from repro.obs.report import (
    RunReport,
    SliceScore,
    diff_reports,
    emit_slice_gauges,
    regressions,
    render_html,
    score_slices,
)
from repro.parallel import AnnotatorPool, shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


def _prediction(sentence_id, mention_index, correct, gold=1):
    predicted = gold if correct else gold + 1
    return MentionPrediction(
        sentence_id=sentence_id,
        mention_index=mention_index,
        surface="m",
        gold_entity_id=gold,
        predicted_entity_id=predicted,
        candidate_ids=np.array([gold, predicted], dtype=np.int64),
        candidate_scores=np.array([0.6, 0.4]),
        evaluable=True,
        is_weak=False,
    )


def _outcome_records(flags, gold=1):
    """One prediction per flag; flag == True means correct."""
    return [
        _prediction(i, 0, bool(flag), gold=gold)
        for i, flag in enumerate(flags)
    ]


def _slice_from_records(name, records):
    scores = score_slices(records, num_samples=200)
    score = scores["all"]
    score.name = name
    return score


def _report(name, slices, metrics=None):
    return RunReport(
        name=name,
        config={},
        seed=0,
        git_sha="",
        created=0.0,
        wall_seconds=1.0,
        environment={},
        metrics=metrics or {},
        slices=slices,
    )


# ----------------------------------------------------------------------
# Slice scoring
# ----------------------------------------------------------------------
class TestScoreSlices:
    def test_all_slice_and_outcomes(self):
        records = _outcome_records([True] * 8 + [False] * 2)
        scores = score_slices(records, num_samples=100)
        assert set(scores) == {"all"}
        score = scores["all"]
        assert score.num_mentions == 10
        assert score.f1 == pytest.approx(80.0, abs=0.01)
        assert score.low <= score.f1 <= score.high
        # Outcome vector keeps the (sentence_id, mention_index, correct)
        # pairing keys the paired bootstrap needs.
        assert score.outcomes[0] == [0, 0, 1]
        assert score.outcomes[-1] == [9, 0, 0]

    def test_popularity_buckets(self):
        counts = EntityCounts(np.array([0, 1, 5000], dtype=np.int64))
        assert counts.bucket_of(0) == "unseen"
        assert counts.bucket_of(1) == "tail"
        assert counts.bucket_of(2) == "head"
        records = (
            _outcome_records([True, True], gold=2)
            + [_prediction(10, 0, True, gold=1), _prediction(11, 0, False, gold=0)]
        )
        scores = score_slices(records, counts=counts, num_samples=100)
        assert {"all", "head", "tail", "unseen"} <= set(scores)
        assert scores["head"].num_mentions == 2
        assert scores["tail"].f1 == pytest.approx(100.0, abs=0.01)
        assert scores["unseen"].f1 == pytest.approx(0.0, abs=0.01)

    def test_emit_slice_gauges(self):
        records = _outcome_records([True] * 4)
        scores = score_slices(records, num_samples=100)
        with obs.scope() as (metrics, _):
            emit_slice_gauges(scores)
            gauges = metrics.to_dict()["gauges"]
        assert gauges["eval.slice_f1{slice=all}"] == pytest.approx(100.0)
        assert gauges["eval.slice_mentions{slice=all}"] == 4.0


# ----------------------------------------------------------------------
# RunReport manifest
# ----------------------------------------------------------------------
class TestRunReport:
    def test_build_records_manifest_and_gauges(self):
        records = _outcome_records([True] * 6 + [False] * 2)
        with obs.scope():
            obs.metrics.counter("infer.batches").inc(3)
            report = RunReport.build(
                name="evaluate:test",
                records=records,
                config={"split": "test"},
                seed=7,
                wall_seconds=1.5,
            )
        assert report.name == "evaluate:test"
        assert report.seed == 7
        assert report.config == {"split": "test"}
        assert report.environment["numpy"] == np.__version__
        assert report.created > 0
        # Slice gauges are emitted before the metrics snapshot is taken,
        # so the snapshot inside the report already carries them.
        assert report.metrics["counters"]["infer.batches"] == 3
        assert "eval.slice_f1{slice=all}" in report.metrics["gauges"]
        assert report.slices["all"].num_mentions == 8

    def test_build_without_obs_scope(self):
        report = RunReport.build(
            name="bare", records=_outcome_records([True, False])
        )
        assert report.metrics == {}
        assert report.slices["all"].num_mentions == 2

    def test_save_load_round_trip(self, tmp_path):
        records = _outcome_records([True] * 5 + [False] * 3)
        report = RunReport.build(name="rt", records=records, seed=3)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.name == "rt"
        assert loaded.seed == 3
        assert loaded.slices["all"].f1 == pytest.approx(report.slices["all"].f1)
        assert loaded.slices["all"].outcomes == report.slices["all"].outcomes

    def test_load_rejects_non_reports(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            RunReport.load(bad)
        not_report = tmp_path / "metrics.json"
        not_report.write_text(json.dumps({"counters": {}}))
        with pytest.raises(ReproError, match="slices"):
            RunReport.load(not_report)

    def test_ordered_slices(self):
        slices = {
            name: _slice_from_records(name, _outcome_records([True]))
            for name in ("kg_relation", "tail", "all", "entity")
        }
        report = _report("order", slices)
        assert [s.name for s in report.ordered_slices()] == [
            "all", "tail", "entity", "kg_relation",
        ]

    def test_html_dashboard(self, tmp_path):
        records = _outcome_records([True] * 4 + [False])
        with obs.scope():
            obs.metrics.counter("infer.batches").inc()
            obs.metrics.histogram("infer.batch_seconds").observe(0.25)
            report = RunReport.build(name="dash<run>", records=records)
        path = tmp_path / "report.html"
        report.to_html(path)
        document = path.read_text()
        assert document.startswith("<!DOCTYPE html>")
        # Self-contained: inline style, no external fetches.
        assert "<style>" in document
        assert "http" not in document.split("</style>")[1].split("<body>")[0]
        assert "dash&lt;run&gt;" in document, "run name must be escaped"
        assert "Slice F1" in document
        assert "infer.batch_seconds" in document
        # Same document via the pure renderer.
        assert render_html(report) == document


# ----------------------------------------------------------------------
# Diffing + regression gating
# ----------------------------------------------------------------------
class TestDiffReports:
    def test_identical_reports_no_regressions(self):
        records = _outcome_records([True] * 30 + [False] * 10)
        report = _report("base", {"all": _slice_from_records("all", records)})
        deltas = diff_reports(report, report)
        assert len(deltas) == 1
        assert deltas[0].method == "paired-bootstrap"
        assert deltas[0].delta == pytest.approx(0.0)
        assert not deltas[0].significant
        assert regressions(deltas) == []

    def test_injected_regression_is_gated(self):
        old = _report(
            "old",
            {"all": _slice_from_records("all", _outcome_records([True] * 200))},
        )
        new = _report(
            "new",
            {
                "all": _slice_from_records(
                    "all", _outcome_records([True] * 140 + [False] * 60)
                )
            },
        )
        deltas = diff_reports(old, new)
        (delta,) = deltas
        assert delta.method == "paired-bootstrap"
        assert delta.delta < 0
        assert delta.significant
        assert delta.regression
        assert regressions(deltas) == [delta]

    def test_improvement_is_significant_but_not_regression(self):
        old = _report(
            "old",
            {
                "all": _slice_from_records(
                    "all", _outcome_records([True] * 140 + [False] * 60)
                )
            },
        )
        new = _report(
            "new",
            {"all": _slice_from_records("all", _outcome_records([True] * 200))},
        )
        (delta,) = diff_reports(old, new)
        assert delta.delta > 0
        assert delta.significant
        assert not delta.regression

    def test_slice_missing_from_new_report_is_gated(self):
        score = _slice_from_records("tail", _outcome_records([True] * 5))
        old = _report("old", {"tail": score})
        new = _report("new", {})
        (delta,) = diff_reports(old, new)
        assert delta.method == "missing"
        assert delta.regression
        # A slice that only *appears* in the new report is not gated.
        (delta,) = diff_reports(new, old)
        assert delta.method == "missing"
        assert not delta.regression

    def test_interval_overlap_fallback_without_outcomes(self):
        def bare(f1, low, high):
            return SliceScore(
                name="all", f1=f1, low=low, high=high, num_mentions=50
            )

        old = _report("old", {"all": bare(90.0, 85.0, 95.0)})
        overlapping = _report("new", {"all": bare(88.0, 83.0, 93.0)})
        (delta,) = diff_reports(old, overlapping)
        assert delta.method == "interval-overlap"
        assert not delta.significant
        disjoint = _report("new", {"all": bare(60.0, 55.0, 65.0)})
        (delta,) = diff_reports(old, disjoint)
        assert delta.method == "interval-overlap"
        assert delta.significant
        assert delta.regression


# ----------------------------------------------------------------------
# Pool-side aggregation: per-worker metrics, one multi-pid trace
# ----------------------------------------------------------------------
@needs_shm
class TestPoolAggregation:
    @pytest.fixture(scope="class")
    def pooled_run(self):
        world = generate_world(WorldConfig(num_entities=120, seed=7))
        corpus = generate_corpus(world, CorpusConfig(num_pages=30, seed=7))
        vocab = build_vocabulary(corpus)
        counts = EntityCounts.from_corpus(corpus, world.num_entities)
        model = BootlegModel(
            BootlegConfig(num_candidates=4, dropout=0.0),
            world.kb,
            vocab,
            entity_counts=counts.counts,
        )
        model.eval()
        annotator = BootlegAnnotator(
            model,
            vocab,
            world.candidate_map,
            world.kb,
            kgs=[world.kg],
            num_candidates=4,
            batch_size=4,
        )
        with obs.scope():
            with compute_dtype(np.float32):
                with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
                    assert not pool.serial
                    records = pool.predict_sentences(corpus.sentences("test"))
            snapshot = obs.metrics.to_dict()
            trace = obs.tracer.to_chrome_trace()
        assert records, "pooled prediction produced no records"
        return snapshot, trace

    def test_every_worker_ships_chunk_histograms(self, pooled_run):
        snapshot, _ = pooled_run
        workers = set()
        observations = 0
        for key, summary in snapshot["histograms"].items():
            name, labels = parse_metric_key(key)
            if name == "parallel.pool.chunk_seconds" and "worker" in labels:
                workers.add(labels["worker"])
                observations += summary["count"]
        assert workers == {"0", "1"}
        assert observations > 0

    def test_worker_chunk_counters_merge(self, pooled_run):
        snapshot, _ = pooled_run
        counters = snapshot["counters"]
        chunk_counts = {
            parse_metric_key(key)[1]["worker"]: value
            for key, value in counters.items()
            if parse_metric_key(key)[0] == "parallel.pool.chunks"
            and "worker" in parse_metric_key(key)[1]
        }
        assert set(chunk_counts) == {"0", "1"}
        assert all(value > 0 for value in chunk_counts.values())

    def test_trace_spans_multiple_pids(self, pooled_run):
        _, trace = pooled_run
        events = trace["traceEvents"]
        pids = {event["pid"] for event in events}
        assert len(pids) >= 2, "merged trace must span owner + workers"
        names = {event["name"] for event in events}
        assert "parallel.pool.chunk" in names
        assert "parallel.predict_sentences" in names
        # Worker chunk spans carry worker pids, not the owner's.
        owner_pid = next(
            event["pid"]
            for event in events
            if event["name"] == "parallel.predict_sentences"
        )
        chunk_pids = {
            event["pid"]
            for event in events
            if event["name"] == "parallel.pool.chunk"
        }
        assert chunk_pids and owner_pid not in chunk_pids


# ----------------------------------------------------------------------
# CLI: report export, dashboards, diff gating
# ----------------------------------------------------------------------
class TestCliReport:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_report")
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
        assert cli.main([
            "train", "--world", str(world_path), "--corpus", str(corpus_path),
            "--epochs", "1", "--out", str(model_path),
            "--report-out", str(root / "train_report.json"),
        ]) == 0
        return root, world_path, corpus_path, model_path

    def test_train_report(self, artifacts):
        root, _, _, _ = artifacts
        payload = json.loads((root / "train_report.json").read_text())
        assert payload["name"].startswith("train:")
        assert payload["train"]["epochs"]
        assert "epoch_seconds" in payload["train"]
        assert payload["metrics"]["counters"]["train.steps"] > 0

    @needs_shm
    def test_evaluate_pooled_full_bundle(self, artifacts):
        root, world_path, corpus_path, model_path = artifacts
        report_json = root / "run_report.json"
        report_html = root / "run_report.html"
        metrics_json = root / "run_metrics.json"
        trace_json = root / "run_trace.json"
        code = cli.main([
            "evaluate", "--world", str(world_path),
            "--corpus", str(corpus_path), "--model", str(model_path),
            "--split", "test", "--workers", "2", "--batch-size", "2",
            "--report-out", str(report_json),
            "--report-html", str(report_html),
            "--metrics-out", str(metrics_json),
            "--trace-out", str(trace_json),
        ])
        assert code == 0
        assert obs.enabled is False, "CLI must disable obs after export"

        # Exported metrics carry per-worker chunk histograms for every
        # worker, merged from the workers' shipped snapshots.
        metrics = json.loads(metrics_json.read_text())
        workers = {
            parse_metric_key(key)[1].get("worker")
            for key in metrics["histograms"]
            if parse_metric_key(key)[0] == "parallel.pool.chunk_seconds"
        }
        assert {"0", "1"} <= workers
        assert "eval.slice_f1{slice=all}" in metrics["gauges"]

        # One Chrome trace spanning at least owner + one worker pid.
        trace = json.loads(trace_json.read_text())
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert len(pids) >= 2

        # The report round-trips and carries the popularity slices.
        report = RunReport.load(report_json)
        assert report.name == "evaluate:test"
        assert report.config["workers"] == 2
        assert "all" in report.slices
        assert report.slices["all"].outcomes
        assert report.wall_seconds > 0
        document = report_html.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "Slice F1" in document

    def test_report_flags_leave_recording_off(self, artifacts, tmp_path):
        # Run reports turn recording on; exporting them must turn it
        # off again, as --metrics-out does.
        _, world_path, corpus_path, model_path = artifacts
        for flag in ("--report-out", "--report-html"):
            assert cli.main([
                "evaluate", "--world", str(world_path),
                "--corpus", str(corpus_path), "--model", str(model_path),
                "--split", "test", flag, str(tmp_path / "report"),
            ]) == 0
            assert obs.enabled is False, flag

    def test_report_show_and_html(self, artifacts, tmp_path, capsys):
        root, _, _, _ = artifacts
        report = _report(
            "show-me",
            {"all": _slice_from_records("all", _outcome_records([True] * 4))},
        )
        path = tmp_path / "r.json"
        report.save(path)
        assert cli.main(["report", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "show-me" in out
        assert "all" in out
        html_path = tmp_path / "r.html"
        assert cli.main(["report", "html", str(path), str(html_path)]) == 0
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_report_diff_gate_exit_codes(self, tmp_path, capsys):
        base = _report(
            "base",
            {"all": _slice_from_records("all", _outcome_records([True] * 200))},
        )
        regressed = _report(
            "regressed",
            {
                "all": _slice_from_records(
                    "all", _outcome_records([True] * 140 + [False] * 60)
                )
            },
        )
        base_path = tmp_path / "base.json"
        regressed_path = tmp_path / "regressed.json"
        base.save(base_path)
        regressed.save(regressed_path)

        # Self-diff: clean gate.
        assert cli.main([
            "report", "diff", str(base_path), str(base_path),
            "--fail-on-regression",
        ]) == 0
        capsys.readouterr()

        # Injected regression: reported, but exit 0 without the gate flag.
        assert cli.main([
            "report", "diff", str(base_path), str(regressed_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out

        # With the gate armed the same diff fails CI.
        assert cli.main([
            "report", "diff", str(base_path), str(regressed_path),
            "--fail-on-regression",
        ]) == 1

        # An improvement never trips the gate.
        assert cli.main([
            "report", "diff", str(regressed_path), str(base_path),
            "--fail-on-regression",
        ]) == 0
