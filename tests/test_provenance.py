"""Decision provenance: recorder semantics, pooled merge, CLI, endpoint.

The identity tests matter most: provenance is an observer, so turning
it on must never change a single prediction, serial or pooled. ``make
check`` reruns this module under ``REPRO_PARALLEL_START_METHOD=spawn``
to enforce the pickling contract on worker-shipped records.
"""

import dataclasses
import json
import os
import signal
import time
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

import repro.obs as obs
from repro import cli
from repro.cascade import (
    REASON_CONFIDENT,
    CascadePolicy,
)
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
from repro.corpus.tokenizer import tokenize
from repro.kb import WorldConfig, generate_world
from repro.nn import compute_dtype
from repro.obs import provenance
from repro.obs.provenance import DecisionRecord, ProvenanceRecorder
from repro.parallel import AnnotatorPool, shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)

# Escalates part of the 120-entity world's mentions (tiny worlds'
# priors are otherwise confident enough to answer everything).
STRICT = CascadePolicy(margin=0.8, prior_mass=0.85)


# ----------------------------------------------------------------------
# Shared fixtures: one small world, model, annotator per module
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
def cascade_annotator(world, vocab, model):
    return BootlegAnnotator(
        model,
        vocab,
        world.candidate_map,
        world.kb,
        kgs=[world.kg],
        num_candidates=4,
        cascade=CascadePolicy(),
    )


@pytest.fixture(scope="module")
def val_sentences(corpus):
    return corpus.sentences("val")


@pytest.fixture(scope="module")
def texts(corpus, annotator):
    candidates = [
        detokenize(list(s.tokens)) for s in corpus.sentences("test")[:12]
    ]
    kept = [t for t in candidates if annotator.detect_mentions(tokenize(t))]
    assert len(kept) >= 6, "test corpus must yield mention-bearing texts"
    return (kept * 3)[:18]


@pytest.fixture(autouse=True)
def _clean_provenance():
    provenance.reset()
    yield
    provenance.reset()


@contextmanager
def _capture():
    """obs + provenance on, both reset afterwards."""
    with obs.scope(fresh=True):
        provenance.enable()
        try:
            yield provenance.recorder()
        finally:
            provenance.reset()


def records_equal(a, b):
    assert len(a) == len(b)
    for rec_a, rec_b in zip(a, b):
        dict_a, dict_b = dataclasses.asdict(rec_a), dataclasses.asdict(rec_b)
        assert dict_a.keys() == dict_b.keys()
        for field in dict_a:
            value_a, value_b = dict_a[field], dict_b[field]
            if isinstance(value_a, np.ndarray) or isinstance(value_b, np.ndarray):
                assert np.array_equal(value_a, value_b), field
            else:
                assert value_a == value_b, field


# ----------------------------------------------------------------------
# Recorder unit semantics
# ----------------------------------------------------------------------
class TestRecorder:
    def test_record_upserts_and_none_keeps_stored_values(self):
        # Re-recording a key replaces the whole record: nothing of the
        # earlier one survives, and a None the newcomer carries is
        # stored as None.
        rec = ProvenanceRecorder()
        rec.record(1, 0, surface="Lincoln", tier="tier0", gold_entity_id=4)
        rec.record(1, 0, tier="model", gold_entity_id=None, model_scores=[0.9, 0.1])
        (stored,) = rec.records()
        assert stored == DecisionRecord(
            sentence_id=1, mention_index=0, tier="model", model_scores=[0.9, 0.1]
        )
        assert len(rec) == 1

    def test_record_coerces_numpy_scalars_and_arrays(self):
        rec = ProvenanceRecorder()
        rec.record(
            2,
            0,
            candidate_ids=np.array([3, 1]),
            prior_scores=np.array([0.75, 0.25]),
            confidence=np.float64(0.75),
            predicted_entity_id=np.int64(3),
        )
        (stored,) = rec.records()
        assert stored.candidate_ids == [3, 1]
        assert all(isinstance(v, int) for v in stored.candidate_ids)
        assert isinstance(stored.confidence, float)
        json.dumps(stored.to_dict())  # JSON-safe all the way down

    def test_export_jsonl_roundtrips_backlog_plus_ring(self, tmp_path):
        # Export writes every record once and replaces the file, so a
        # second export of the same records leaves the same rows.
        out = tmp_path / "audit.jsonl"
        rec = ProvenanceRecorder()
        for i in range(4):
            rec.record(i, 0, surface=f"s{i}")
        assert rec.export_jsonl(str(out)) == 4
        assert rec.export_jsonl(str(out)) == 4
        loaded = provenance.load_jsonl(str(out))
        assert [r.sentence_id for r in loaded] == [0, 1, 2, 3]
        assert loaded[3].surface == "s3"

    def test_over_4096_records_export_once_each_with_slices(self, tmp_path):
        # More records than a 4,096-entry ring holds: every one stays
        # until export, so attach_slices reaches them all.
        keys = [(sentence, index) for sentence in range(2100) for index in (0, 1)]
        out = tmp_path / "audit.jsonl"
        with _capture():
            for sentence, index in keys:
                provenance.record_decision(sentence, index, tier="model")
            provenance.attach_slices(
                {"tail": set(keys[::2]), "head": set(keys[1::2])}
            )
            assert provenance.export_jsonl(str(out)) == len(keys)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted(
            (row["sentence_id"], row["mention_index"]) for row in rows
        ) == keys
        assert all(row["slices"] for row in rows)

    def test_module_capture_requires_enable(self):
        assert not provenance.active
        provenance.record_decision(1, 0, surface="x")  # silently dropped
        assert provenance.snapshot_records() == []
        provenance.enable()
        provenance.record_decision(1, 0, surface="x")
        assert len(provenance.snapshot_records()) == 1
        provenance.disable()
        provenance.record_decision(2, 0, surface="y")
        assert len(provenance.snapshot_records()) == 1  # disable() froze it

    def test_attach_slices(self):
        provenance.enable()
        provenance.record_decision(1, 0, surface="a")
        provenance.record_decision(2, 0, surface="b")
        provenance.attach_slices(
            {"tail": {(1, 0)}, "kg-relation": {(1, 0), (2, 0)}, "head": set()}
        )
        by_key = {r.key: r for r in provenance.recorder().records()}
        assert by_key[(1, 0)].slices == ["kg-relation", "tail"]
        assert by_key[(2, 0)].slices == ["kg-relation"]


class TestQueryAndFormat:
    def _records(self):
        return [
            DecisionRecord(
                sentence_id=1, mention_index=0, surface="Abe Lincoln",
                tier="tier0", reason=REASON_CONFIDENT, candidate_ids=[5, 7],
                prior_scores=[0.9, 0.1], predicted_entity_id=5,
                gold_entity_id=5, margin=0.8, confidence=0.9,
                slices=["head"],
            ),
            DecisionRecord(
                sentence_id=2, mention_index=1, surface="Lincoln, NE",
                tier="model", reason="margin-too-small",
                candidate_ids=[7, 9], model_scores=[0.6, 0.4],
                predicted_entity_id=7, gold_entity_id=9,
                slices=["tail"], worker=3,
            ),
        ]

    def test_query_filters_compose(self):
        records = self._records()
        assert len(list(provenance.query(records))) == 2
        assert [r.sentence_id for r in provenance.query(records, tier="model")] == [2]
        assert [r.sentence_id for r in provenance.query(records, slice_name="tail")] == [2]
        assert [r.sentence_id for r in provenance.query(records, reason="margin-too-small")] == [2]
        # entity matches predicted, gold, or any candidate
        assert len(list(provenance.query(records, entity_id=7))) == 2
        assert [r.sentence_id for r in provenance.query(records, entity_id=5)] == [1]
        assert [
            r.sentence_id
            for r in provenance.query(records, surface="lincoln", tier="tier0")
        ] == [1]
        assert list(provenance.query(records, sentence_id=2, mention_index=0)) == []

    def test_format_record_renders_candidates_and_titles(self):
        record = self._records()[1]
        text = provenance.format_record(record, titles={7: "Lincoln (city)"})
        assert "sentence 2 mention 1" in text
        assert "tier=model reason=margin-too-small" in text
        assert "worker=3" in text
        assert "7 (Lincoln (city)): prior=- model=0.6000 *" in text
        assert "slices: tail" in text


# ----------------------------------------------------------------------
# Serial capture through the cascade
# ----------------------------------------------------------------------
class TestSerialCascadeCapture:
    def test_cascade_records_every_mention_and_predictions_unchanged(
        self, cascade_annotator, val_sentences
    ):
        baseline = cascade_annotator.predict_sentences(val_sentences)
        with _capture() as recorder:
            observed = cascade_annotator.predict_sentences(val_sentences)
            captured = recorder.records()
        records_equal(baseline, observed)
        assert len(captured) == len(baseline)
        assert {r.key for r in captured} == {
            (p.sentence_id, p.mention_index) for p in baseline
        }
        by_key = {r.key: r for r in captured}
        for prediction in baseline:
            record = by_key[(prediction.sentence_id, prediction.mention_index)]
            assert record.tier == prediction.tier
            assert record.predicted_entity_id == prediction.predicted_entity_id
            assert record.gold_entity_id == prediction.gold_entity_id
            assert record.surface
            assert record.alias
            assert record.reason
            assert record.candidate_ids
            if record.tier == "tier0":
                assert record.reason == REASON_CONFIDENT
                assert len(record.prior_scores) == len(record.candidate_ids)
                assert record.model_scores == []
            else:
                assert record.reason != REASON_CONFIDENT
                assert len(record.model_scores) == len(record.candidate_ids)

    def test_nothing_captured_when_disabled(
        self, cascade_annotator, val_sentences
    ):
        assert not obs.enabled
        cascade_annotator.predict_sentences(val_sentences)
        assert provenance.snapshot_records() == []

    def test_annotate_records_carry_no_gold(self, world, vocab, model, texts):
        # Annotated text has no gold label; a recorded placeholder would
        # make `repro explain --entity` match every annotated mention.
        for policy in (None, STRICT):
            annotator = BootlegAnnotator(
                model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
                num_candidates=4, batch_size=4, cascade=policy,
            )
            with _capture() as recorder:
                annotator.annotate_batch(texts)
                captured = recorder.records()
            assert captured
            assert all(record.gold_entity_id is None for record in captured)


# ----------------------------------------------------------------------
# Pooled capture: worker records ship to the owner under worker={rank}
# ----------------------------------------------------------------------
def annotations_equal(a, b):
    assert len(a) == len(b)
    for doc_a, doc_b in zip(a, b):
        assert [dataclasses.asdict(m) for m in doc_a] == [
            dataclasses.asdict(m) for m in doc_b
        ]


@needs_shm
class TestPooledProvenance:
    @contextmanager
    def _pool(self, annotator, **kwargs):
        with compute_dtype(np.float32):
            pool = AnnotatorPool.from_annotator(annotator, workers=2, **kwargs)
        assert not pool.serial, "pool fell back to serial unexpectedly"
        try:
            yield pool
        finally:
            pool.close()

    def test_pooled_capture_covers_every_mention_with_worker_ranks(
        self, annotator, texts
    ):
        # Serial reference capture: which keys must exist, and what the
        # predictions must look like.
        with _capture() as recorder:
            with compute_dtype(np.float32):
                serial = annotator.annotate_batch(texts)
            serial_keys = {r.key for r in recorder.records()}
        assert serial_keys, "reference run captured nothing"
        assert {key[0] for key in serial_keys} <= set(range(len(texts)))

        with _capture() as recorder:
            with self._pool(annotator) as pool:
                pooled = pool.annotate_batch(texts, chunk_size=2)
            captured = recorder.records()
        annotations_equal(serial, pooled)
        assert {r.key for r in captured} == serial_keys
        ranks = {r.worker for r in captured}
        assert ranks <= {0, 1} and -1 not in ranks
        assert len(ranks) == 2, "expected records from both workers"
        for record in captured:
            assert record.tier
            assert record.surface

    def test_pooled_annotate_records_carry_no_gold(
        self, world, vocab, model, texts
    ):
        annotator = BootlegAnnotator(
            model, vocab, world.candidate_map, world.kb, kgs=[world.kg],
            num_candidates=4, batch_size=4, cascade=STRICT,
        )
        with _capture() as recorder:
            with self._pool(annotator) as pool:
                pool.annotate_batch(texts, chunk_size=2)
            captured = recorder.records()
        assert {record.tier for record in captured} == {"tier0", "model"}
        assert all(record.gold_entity_id is None for record in captured)

    def test_pooled_capture_keeps_every_record(self, annotator, texts):
        # Regression: workers once shipped cumulative copies of a
        # 4,096-record ring, so records evicted between shipments never
        # reached the owner (8,192 of 9,900 kept here). Each shipment
        # drains every record since the last one.
        many = (texts * 400)[:6000]
        with _capture() as recorder:
            with self._pool(annotator) as pool:
                annotated = pool.annotate_batch(many)
            captured = recorder.records()
        expected = {
            (doc, index)
            for doc, mentions in enumerate(annotated)
            for index in range(len(mentions))
        }
        assert len(expected) > 8192
        assert len(captured) == len(expected)
        assert {record.key for record in captured} == expected
        assert all(record.worker >= 0 for record in captured)

    def test_pool_annotations_identical_with_provenance_on_vs_off(
        self, annotator, texts
    ):
        with self._pool(annotator) as pool:
            plain = pool.annotate_batch(texts, chunk_size=2)
        with _capture():
            with self._pool(annotator) as pool:
                observed = pool.annotate_batch(texts, chunk_size=2)
        annotations_equal(plain, observed)

    def test_live_provenance_visible_mid_run_and_over_http(
        self, annotator, texts
    ):
        from repro.obs.exporter import TelemetryServer

        with _capture() as recorder:
            with self._pool(annotator, telemetry_interval=0.0) as pool:
                pool.annotate_batch(texts[:8], chunk_size=2)
                # Shipped rows are stored in the owner's recorder on
                # arrival, so they are there while the pool is open.
                rows = provenance.snapshot_records()
                assert rows, "no worker shipped provenance mid-run"
                assert all(row["worker"] >= 0 for row in rows)
                server = TelemetryServer(port=0).start()
                try:
                    with urllib.request.urlopen(
                        f"{server.url}/provenance", timeout=5
                    ) as response:
                        body = json.loads(response.read())
                finally:
                    server.stop()
                assert body["active"] is True
                assert body["num_records"] == len(rows)
                assert body["records"] == rows
            # The final shipments at close carry nothing new.
            assert len(recorder) == len(rows)

    def test_crashed_worker_last_shipped_records_survive(
        self, annotator, texts
    ):
        # Mirror of the dead-worker telemetry recovery: interval=0 ships
        # after every task and the owner stores each shipment on
        # arrival, so a SIGKILLed worker's shipped records stay in the
        # owner's recorder through close.
        with _capture() as recorder:
            with self._pool(annotator, telemetry_interval=0.0) as pool:
                pool.annotate_batch(texts[:12], chunk_size=2)
                shipped = {record.worker for record in recorder.records()}
                assert shipped, "no worker shipped provenance"
                victim = sorted(shipped)[0]
                os.kill(pool.worker_pids()[victim], signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while (
                    pool._procs[victim].is_alive()
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert not pool._procs[victim].is_alive()
            captured = recorder.records()
        victims = [r for r in captured if r.worker == victim]
        assert victims, "dead worker's shipped records were lost"
        for record in victims:
            assert record.tier
            assert record.candidate_ids


# ----------------------------------------------------------------------
# CLI: --provenance-out + repro explain
# ----------------------------------------------------------------------
class TestExplainCli:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("explain_cli")
        world_path = str(root / "world.npz")
        corpus_path = str(root / "corpus.json")
        model_path = str(root / "model.npz")
        assert cli.main([
            "generate-world", "--entities", "80", "--seed", "3",
            "--out", world_path,
        ]) == 0
        assert cli.main([
            "generate-corpus", "--world", world_path, "--pages", "20",
            "--seed", "3", "--out", corpus_path,
        ]) == 0
        assert cli.main([
            "train", "--world", world_path, "--corpus", corpus_path,
            "--epochs", "1", "--out", model_path,
        ]) == 0
        return world_path, corpus_path, model_path

    def _audit_file(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        rec = ProvenanceRecorder()
        rec.record(
            4, 0, surface="Springfield", alias="springfield", tier="tier0",
            reason=REASON_CONFIDENT, candidate_ids=[11, 12],
            prior_scores=[0.7, 0.3], predicted_entity_id=11,
            gold_entity_id=11, margin=0.4, confidence=0.7, slices=["torso"],
        )
        rec.record(
            5, 1, surface="Springfield, MO", alias="springfield",
            tier="model", reason="margin-too-small", candidate_ids=[11, 13],
            prior_scores=[0.5, 0.5], model_scores=[0.2, 0.8],
            predicted_entity_id=13, gold_entity_id=11, worker=1,
            slices=["tail"],
        )
        rec.export_jsonl(str(path))
        return path

    def test_explain_by_sentence_and_mention(self, tmp_path, capsys):
        path = self._audit_file(tmp_path)
        assert cli.main(["explain", str(path), "--sentence", "5", "--mention", "1"]) == 0
        out = capsys.readouterr().out
        assert "sentence 5 mention 1" in out
        assert "reason=margin-too-small" in out
        assert "13: prior=0.5000 model=0.8000 *" in out

    def test_explain_filters_and_json(self, tmp_path, capsys):
        path = self._audit_file(tmp_path)
        assert cli.main(["explain", str(path), "--slice", "tail", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["sentence_id"] for row in rows] == [5]
        assert cli.main(["explain", str(path), "--tier", "tier0"]) == 0
        assert "Springfield" in capsys.readouterr().out
        assert cli.main(["explain", str(path), "--reason", "type-veto"]) == 1
        assert "no matching decision records" in capsys.readouterr().err

    def test_evaluate_cli_writes_complete_audit(
        self, artifacts, tmp_path, capsys
    ):
        # End to end through the real CLI: every mention of the split
        # must land in the JSONL, predictions unchanged vs. a plain run.
        world_path, corpus_path, model_path = artifacts
        audit_path = str(tmp_path / "audit.jsonl")
        capsys.readouterr()
        assert cli.main([
            "evaluate", "--world", world_path, "--corpus", corpus_path,
            "--model", model_path, "--cascade",
        ]) == 0
        plain_table = capsys.readouterr().out
        assert cli.main([
            "evaluate", "--world", world_path, "--corpus", corpus_path,
            "--model", model_path, "--cascade",
            "--provenance-out", audit_path,
        ]) == 0
        observed_table = capsys.readouterr().out
        assert observed_table == plain_table
        assert not obs.enabled  # teardown disabled the plane again
        assert not provenance.active
        records = provenance.load_jsonl(audit_path)
        assert records
        keys = {r.key for r in records}
        assert len(keys) == len(records), "duplicate audit keys"
        for record in records:
            assert record.tier in ("tier0", "model")
            assert record.reason
            assert record.candidate_ids
            assert record.slices, "owner-side slice stamping missing"
        capsys.readouterr()
        assert cli.main([
            "explain", audit_path, "--tier", "tier0", "--limit", "2",
            "--world", world_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "reason=confident" in out
        assert "(" in out  # titles resolved from the world KB

    def test_provenance_out_replaces_an_existing_file(
        self, artifacts, tmp_path
    ):
        # Like --metrics-out, a second run overwrites the audit: one row
        # per mention, not one per mention per run.
        world_path, corpus_path, model_path = artifacts
        audit_path = str(tmp_path / "audit.jsonl")
        argv = [
            "evaluate", "--world", world_path, "--corpus", corpus_path,
            "--model", model_path, "--provenance-out", audit_path,
        ]
        assert cli.main(argv) == 0
        first = provenance.load_jsonl(audit_path)
        assert cli.main(argv) == 0
        second = provenance.load_jsonl(audit_path)
        assert first
        assert len({record.key for record in second}) == len(second)
        assert len(second) == len(first)

    @needs_shm
    def test_pooled_evaluate_audit_matches_serial(
        self, artifacts, tmp_path
    ):
        # Pooled evaluate makes and records every decision in a worker,
        # tier 0 included; the owner attaches slices once the pool has
        # closed. The audit must hold the serial rows, key for key,
        # except for the rank that decided each. Rows follow the order
        # the workers' shipments arrived in.
        world_path, corpus_path, model_path = artifacts

        def audit(workers):
            path = tmp_path / f"audit-{workers}.jsonl"
            assert cli.main([
                "evaluate", "--world", world_path, "--corpus", corpus_path,
                "--model", model_path, "--cascade",
                "--cascade-margin", str(STRICT.margin),
                "--cascade-prior-mass", str(STRICT.prior_mass),
                "--workers", str(workers), "--provenance-out", str(path),
            ]) == 0
            return [json.loads(line) for line in path.read_text().splitlines()]

        def by_key(rows):
            keyed = {
                (row["sentence_id"], row["mention_index"]): {
                    k: v for k, v in row.items() if k != "worker"
                }
                for row in rows
            }
            assert len(keyed) == len(rows), "duplicate audit keys"
            return keyed

        serial, pooled = audit(1), audit(2)
        tiers = {row["tier"] for row in serial}
        assert tiers == {"tier0", "model"}, "the policy must answer and escalate"
        assert all(row["worker"] == -1 for row in serial)
        assert all(row["worker"] >= 0 for row in pooled)
        assert by_key(pooled) == by_key(serial)


# ----------------------------------------------------------------------
# Report drill-down: worst failures per slice link to full records
# ----------------------------------------------------------------------
class TestReportDrilldown:
    def test_slice_examples_attach_and_render(
        self, world, corpus, cascade_annotator, val_sentences
    ):
        from repro.corpus.stats import EntityCounts as Counts
        from repro.obs.report import RunReport, render_html

        counts = Counts.from_corpus(corpus, world.num_entities)
        with _capture():
            records = cascade_annotator.predict_sentences(val_sentences)
            report = RunReport.build(
                name="drill", records=records, counts=counts
            )
        failed = [
            p for p in records
            if p.gold_entity_id >= 0
            and p.predicted_entity_id != p.gold_entity_id
        ]
        assert failed, "fixture run must produce at least one failure"
        with_examples = [s for s in report.slices.values() if s.examples]
        assert with_examples, "no slice captured drill-down examples"
        for entry in with_examples:
            assert len(entry.examples) <= 3
            for example in entry.examples:
                assert example["predicted_entity_id"] != example["gold_entity_id"]
                assert example["reason"]
        # Examples survive the JSON round trip and reach the HTML.
        reloaded = RunReport.from_dict(report.to_dict())
        assert {
            name: s.examples for name, s in reloaded.slices.items()
        } == {name: s.examples for name, s in report.slices.items()}
        html = render_html(report)
        assert "Failure drill-down (decision provenance)" in html
        assert "details class=\"examples\"" in html

    def test_no_examples_without_provenance(
        self, world, corpus, cascade_annotator, val_sentences
    ):
        from repro.corpus.stats import EntityCounts as Counts
        from repro.obs.report import RunReport

        counts = Counts.from_corpus(corpus, world.num_entities)
        with obs.scope(fresh=True):
            records = cascade_annotator.predict_sentences(val_sentences)
            report = RunReport.build(
                name="plain", records=records, counts=counts
            )
        assert all(s.examples == [] for s in report.slices.values())
