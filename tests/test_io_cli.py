"""Tests for world/corpus serialization, the CLI, two-hop KG, page
features, and bootstrap intervals."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.corpus import (
    CorpusConfig,
    NedDataset,
    build_page_graph,
    build_vocabulary,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from repro.errors import ConfigError, SerializationError
from repro.eval import MentionPrediction, bootstrap_f1, f1_difference_significant
from repro.kb import (
    KnowledgeGraph,
    Triple,
    TwoHopKnowledgeGraph,
    WorldConfig,
    generate_world,
    load_world,
    save_world,
)
from repro.obs.metrics import parse_metric_key
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.report import RunReport
from repro.parallel import shared_memory_available
from repro.weaklabel import weak_label_corpus


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=150, seed=17))


@pytest.fixture(scope="module")
def corpus(world):
    raw = generate_corpus(world, CorpusConfig(num_pages=40, seed=17))
    labeled, _ = weak_label_corpus(raw, world.kb)
    return labeled


class TestWorldIO:
    def test_roundtrip_equivalence(self, world, tmp_path):
        path = tmp_path / "world.json"
        save_world(world, path)
        restored = load_world(path)
        assert restored.kb.num_entities == world.kb.num_entities
        assert [e.title for e in restored.kb.entities()] == [
            e.title for e in world.kb.entities()
        ]
        assert restored.kg.num_triples == world.kg.num_triples
        assert restored.unseen_entity_ids == world.unseen_entity_ids
        np.testing.assert_allclose(restored.mention_weights, world.mention_weights)
        # Candidate map preserved with scores.
        for entity in list(world.kb.entities())[:20]:
            assert restored.candidate_map.candidates(
                entity.mention_stem
            ) == world.candidate_map.candidates(entity.mention_stem)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_world(tmp_path / "nope.json")

    def test_bad_version(self, world, tmp_path):
        import json

        from repro.kb.io import world_to_dict

        payload = world_to_dict(world)
        payload["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_world(path)


class TestCorpusIO:
    def test_roundtrip_preserves_everything(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        restored = load_corpus(path)
        assert len(restored.pages) == len(corpus.pages)
        assert restored.num_mentions() == corpus.num_mentions()
        for original, loaded in zip(corpus.sentences(), restored.sentences()):
            assert original.tokens == loaded.tokens
            assert original.pattern == loaded.pattern
            assert [m.provenance for m in original.mentions] == [
                m.provenance for m in loaded.mentions
            ]

    def test_truncated_file_detected(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(SerializationError):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_corpus(tmp_path / "nope.jsonl")


class TestTwoHopGraph:
    def test_shared_neighbor_pairs_linked(self):
        # 0-2, 1-2: 0 and 1 share neighbor 2 but are not connected.
        kg = KnowledgeGraph(4, [Triple(0, 0, 2), Triple(1, 0, 2)])
        two_hop = TwoHopKnowledgeGraph(kg)
        matrix = two_hop.candidate_adjacency(np.array([0, 1, 3]))
        assert matrix[0, 1] == pytest.approx(np.log1p(1))
        assert matrix[0, 2] == 0.0

    def test_direct_pairs_excluded_by_default(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 2)])
        two_hop = TwoHopKnowledgeGraph(kg)
        matrix = two_hop.candidate_adjacency(np.array([0, 1]))
        assert matrix[0, 1] == 0.0  # directly connected -> excluded
        inclusive = TwoHopKnowledgeGraph(kg, include_direct=True)
        matrix = inclusive.candidate_adjacency(np.array([0, 1]))
        assert matrix[0, 1] > 0.0

    def test_padding_respected(self):
        kg = KnowledgeGraph(4, [Triple(0, 0, 2), Triple(1, 0, 2)])
        two_hop = TwoHopKnowledgeGraph(kg)
        matrix = two_hop.candidate_adjacency(np.array([0, -1, 1]), pad_id=-1)
        assert matrix[0, 1] == 0.0
        assert matrix[0, 2] > 0.0

    def test_pluggable_into_dataset(self, world, corpus):
        vocab = build_vocabulary(corpus)
        dataset = NedDataset(
            corpus, "train", vocab, world.candidate_map, 4,
            kgs=[world.kg, TwoHopKnowledgeGraph(world.kg)],
        )
        item = dataset[0]
        assert len(item.adjacencies) == 2


class TestPageFeature:
    def test_feature_shapes_and_range(self, world, corpus):
        vocab = build_vocabulary(corpus)
        page_graph = build_page_graph(corpus, world.num_entities)
        dataset = NedDataset(
            corpus, "train", vocab, world.candidate_map, 4,
            page_graph=page_graph,
        )
        batch = dataset.collate(dataset.encoded[:6])
        assert batch.page_feature is not None
        assert batch.page_feature.shape == batch.candidate_ids.shape
        assert (batch.page_feature >= 0).all()
        # Some candidate must see page co-occurrence signal.
        total = sum(float(e.page_feature.sum()) for e in dataset.encoded)
        assert total > 0

    def test_no_page_graph_means_none(self, world, corpus):
        vocab = build_vocabulary(corpus)
        dataset = NedDataset(corpus, "train", vocab, world.candidate_map, 4)
        batch = dataset.collate(dataset.encoded[:2])
        assert batch.page_feature is None


class TestBootstrap:
    def _predictions(self, outcomes):
        return [
            MentionPrediction(
                sentence_id=i,
                mention_index=0,
                surface="x",
                gold_entity_id=1,
                predicted_entity_id=1 if correct else 2,
                candidate_ids=np.array([1, 2]),
                candidate_scores=np.array([1.0, 0.0]),
                evaluable=True,
                is_weak=False,
            )
            for i, correct in enumerate(outcomes)
        ]

    def test_interval_contains_point(self):
        predictions = self._predictions([True] * 70 + [False] * 30)
        interval = bootstrap_f1(predictions, num_samples=200, seed=1)
        assert interval.low <= interval.point <= interval.high
        assert interval.point == pytest.approx(70.0)
        assert interval.num_mentions == 100

    def test_perfect_predictions_tight_interval(self):
        interval = bootstrap_f1(self._predictions([True] * 50), num_samples=100)
        assert interval.point == interval.low == interval.high == 100.0

    def test_empty_predictions(self):
        interval = bootstrap_f1([])
        assert interval.num_mentions == 0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            bootstrap_f1(self._predictions([True]), alpha=2.0)
        with pytest.raises(ConfigError):
            bootstrap_f1(self._predictions([True]), num_samples=2)

    def test_paired_difference_detects_gap(self):
        strong = self._predictions([True] * 90 + [False] * 10)
        weak = self._predictions([True] * 40 + [False] * 60)
        mean, significant = f1_difference_significant(strong, weak, num_samples=300)
        assert mean == pytest.approx(50.0)
        assert significant

    def test_paired_difference_null(self):
        same = self._predictions([True, False] * 30)
        mean, significant = f1_difference_significant(same, same, num_samples=200)
        assert mean == 0.0
        assert not significant


class TestCli:
    def test_full_lifecycle(self, tmp_path, capsys):
        world_path = str(tmp_path / "world.json")
        corpus_path = str(tmp_path / "corpus.jsonl")
        model_path = str(tmp_path / "model.npz")
        assert cli_main([
            "generate-world", "--entities", "120", "--seed", "5",
            "--out", world_path,
        ]) == 0
        assert cli_main([
            "generate-corpus", "--world", world_path, "--pages", "25",
            "--seed", "5", "--weak-label", "--out", corpus_path,
        ]) == 0
        assert cli_main([
            "train", "--world", world_path, "--corpus", corpus_path,
            "--epochs", "1", "--candidates", "4", "--out", model_path,
        ]) == 0
        assert cli_main([
            "evaluate", "--world", world_path, "--corpus", corpus_path,
            "--model", model_path, "--split", "val", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "val split" in out
        assert cli_main([
            "annotate", "--world", world_path, "--model", model_path,
            "--text", "w1 name1 w2",
        ]) == 0

    def test_evaluate_batch_size_sets_model_batches(self, tmp_path):
        # The serial full-model path packs --batch-size sentences per
        # model batch, like the cascade and pooled paths.
        world_path = str(tmp_path / "world.json")
        corpus_path = str(tmp_path / "corpus.jsonl")
        model_path = str(tmp_path / "model.npz")
        metrics_path = str(tmp_path / "metrics.json")
        assert cli_main([
            "generate-world", "--entities", "80", "--seed", "3",
            "--out", world_path,
        ]) == 0
        assert cli_main([
            "generate-corpus", "--world", world_path, "--pages", "12",
            "--seed", "3", "--out", corpus_path,
        ]) == 0
        assert cli_main([
            "train", "--world", world_path, "--corpus", corpus_path,
            "--epochs", "0", "--out", model_path,
        ]) == 0
        assert cli_main([
            "evaluate", "--world", world_path, "--corpus", corpus_path,
            "--model", model_path, "--split", "val", "--batch-size", "3",
            "--metrics-out", metrics_path,
        ]) == 0
        sentences = [
            s for s in load_corpus(corpus_path).sentences("val") if s.mentions
        ]
        assert len(sentences) > 3
        with open(metrics_path) as handle:
            counters = json.load(handle)["counters"]
        assert counters["infer.batches"] == math.ceil(len(sentences) / 3)

    @pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_pooled_evaluate_matches_serial(self, tmp_path, capsys):
        # The pool runs the serial plan's batches on its workers and
        # makes every decision there, tier 0 included.
        world_path = str(tmp_path / "world.json")
        corpus_path = str(tmp_path / "corpus.jsonl")
        model_path = str(tmp_path / "model.npz")
        assert cli_main([
            "generate-world", "--entities", "80", "--seed", "3",
            "--out", world_path,
        ]) == 0
        assert cli_main([
            "generate-corpus", "--world", world_path, "--pages", "30",
            "--seed", "3", "--out", corpus_path,
        ]) == 0
        assert cli_main([
            "train", "--world", world_path, "--corpus", corpus_path,
            "--epochs", "1", "--out", model_path,
        ]) == 0

        def evaluate(workers, *extra):
            metrics_path = tmp_path / f"metrics-{workers}-{len(extra)}.json"
            capsys.readouterr()
            assert cli_main([
                "evaluate", "--world", world_path, "--corpus", corpus_path,
                "--model", model_path, "--split", "val", "--batch-size", "3",
                "--workers", str(workers), "--metrics-out", str(metrics_path),
                *extra,
            ]) == 0
            table = capsys.readouterr().out
            with open(metrics_path) as handle:
                return table, json.load(handle)["counters"]

        def by_worker(counters, name):
            """``name``'s counts keyed by worker rank (None: owner-side),
            other labels (e.g. an escalation reason) excluded."""
            found = {}
            for key, value in counters.items():
                metric, labels = parse_metric_key(key)
                if metric == name and set(labels) <= {"worker"}:
                    found[labels.get("worker")] = value
            return found

        serial_table, serial = evaluate(1)
        pooled_table, pooled = evaluate(2)
        assert "val split" in serial_table
        assert pooled_table == serial_table
        batches = by_worker(pooled, "infer.batches")
        assert set(batches) == {"0", "1"}
        assert sum(batches.values()) == serial["infer.batches"]

        # A policy that answers some mentions at tier 0 and escalates
        # the rest: the cascade counters arrive from the workers only.
        strict = ("--cascade", "--cascade-margin", "0.8",
                  "--cascade-prior-mass", "0.85")
        serial_table, serial = evaluate(1, *strict)
        pooled_table, pooled = evaluate(2, *strict)
        assert pooled_table == serial_table
        for name in ("cascade.tier0_answered", "cascade.escalated"):
            assert serial[name] > 0
            counts = by_worker(pooled, name)
            assert None not in counts and counts
            assert sum(counts.values()) == serial[name]

    def test_presets_accepted(self, tmp_path):
        world_path = str(tmp_path / "world.json")
        corpus_path = str(tmp_path / "corpus.jsonl")
        cli_main(["generate-world", "--entities", "120", "--seed", "6",
                  "--out", world_path])
        cli_main(["generate-corpus", "--world", world_path, "--pages", "20",
                  "--seed", "6", "--out", corpus_path])
        for preset in ("type-only", "kg-only", "ent-only"):
            model_path = str(tmp_path / f"{preset}.npz")
            assert cli_main([
                "train", "--world", world_path, "--corpus", corpus_path,
                "--preset", preset, "--epochs", "1", "--candidates", "4",
                "--out", model_path,
            ]) == 0

    def test_error_reported_cleanly(self, tmp_path, capsys):
        rc = cli_main([
            "generate-corpus", "--world", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "c.jsonl"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def cli_inputs(self, world, corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_inputs")
        save_world(world, root / "world.json")
        save_corpus(corpus, root / "corpus.jsonl")
        np.savez(root / "no_metadata.npz", weights=np.zeros(2))
        np.save(root / "array.npy", np.zeros(2))
        recorder = ProvenanceRecorder()
        for sentence_id in range(3):
            recorder.record(sentence_id, 0, surface="m", tier="model")
        recorder.export_jsonl(str(root / "records.jsonl"))
        for name, correct in (("old", [True] * 8), ("new", [True, False] * 4)):
            predictions = [
                MentionPrediction(
                    sentence_id=i, mention_index=0, surface="m",
                    gold_entity_id=1, predicted_entity_id=1 if ok else 2,
                    candidate_ids=np.array([1, 2]),
                    candidate_scores=np.array([0.6, 0.4]),
                    evaluable=True, is_weak=False,
                )
                for i, ok in enumerate(correct)
            ]
            RunReport.build(name, records=predictions, num_samples=50).save(
                root / f"{name}.json"
            )
        return root

    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate", "--world", "{root}/world.json",
             "--model", "{root}/missing.npz", "--text", "w1"],
            ["evaluate", "--world", "{root}/world.json",
             "--corpus", "{root}/corpus.jsonl", "--model", "{root}/missing.npz"],
            ["annotate", "--world", "{root}/world.json",
             "--model", "{root}/no_metadata.npz", "--text", "w1"],
            ["annotate", "--world", "{root}/world.json",
             "--model", "{root}/world.json", "--text", "w1"],
            ["annotate", "--world", "{root}/world.json",
             "--model", "{root}/array.npy", "--text", "w1"],
            ["explain", "{root}/missing.jsonl"],
            ["report", "diff", "{root}/old.json", "{root}/new.json", "--json"],
            ["generate-world", "--out", "{root}/w.json",
             "--serve-metrics", "0", "--sample-interval", "0"],
            ["explain", "{root}/records.jsonl", "--limit", "-1"],
            ["explain", "{root}/records.jsonl", "--limit", "0"],
            ["report", "diff", "{root}/old.json", "{root}/new.json",
             "--samples", "0"],
            ["report", "diff", "{root}/old.json", "{root}/new.json",
             "--alpha", "2"],
        ],
        ids=[
            "annotate-missing-model", "evaluate-missing-model",
            "model-without-metadata", "model-not-an-npz", "model-is-an-npy",
            "explain-missing-records",
            "diff-json", "sample-interval-0",
            "explain-limit-negative", "explain-limit-0",
            "diff-samples-0", "diff-alpha-2",
        ],
    )
    def test_bad_input_is_an_error_line_not_a_traceback(self, cli_inputs, argv):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro",
             *(arg.format(root=cli_inputs) for arg in argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert result.returncode != 0
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr, result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "diff", "a.json", "b.json", "--json"],
            ["evaluate", "--work", "2"],
            ["evaluate", "--cascade-m", "0.5"],
            ["evaluate", "--workers", "0"],
            ["evaluate", "--workers", "-2"],
            ["evaluate", "--store-budget-mb", "-5"],
            ["evaluate", "--store-budget-mb", "0"],
        ],
        ids=[
            "diff-json-prefix", "workers-prefix", "cascade-margin-prefix",
            "workers-0", "workers-negative", "store-budget-negative",
            "store-budget-0",
        ],
    )
    def test_flags_are_exact_and_checked(self, argv, capsys):
        # A prefix of a longer flag, a worker count below 1 and a store
        # budget of 0 MiB or less are usage errors, not silently
        # different runs.
        if argv[0] == "evaluate":
            argv = argv + ["--world", "w", "--corpus", "c", "--model", "m"]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
