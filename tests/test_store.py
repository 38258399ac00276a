"""Tests for repro.store: dense/mmap/tiered payload backends.

``make check`` runs this module a second time under
``REPRO_PARALLEL_START_METHOD=spawn`` so the store descriptors crossing
the pool's process boundary are held to the stricter pickling contract.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

import repro.obs as obs
from repro.core import (
    BootlegAnnotator,
    BootlegConfig,
    BootlegModel,
    compressed_embeddings,
)
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.corpus.tokenizer import tokenize
from repro.errors import ConfigError, StoreError
from repro.kb import WorldConfig, generate_world
from repro.nn import compute_dtype
from repro.parallel import AnnotatorPool, SharedArrayStore, shared_memory_available
from repro.store import (
    DensePayloadStore,
    ShardedMmapStore,
    ShardedStoreWriter,
    TieredPayloadStore,
    restore_from_export,
    write_sharded_store,
)


# ----------------------------------------------------------------------
# Shared fixtures: one small world + model per module
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
def counts(world, corpus):
    return EntityCounts.from_corpus(corpus, world.num_entities).counts


@pytest.fixture(scope="module")
def model(world, vocab, counts):
    model = BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts,
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def annotator(world, vocab, model):
    return BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=4, batch_size=4,
    )


@pytest.fixture(scope="module")
def texts(corpus, annotator):
    candidates = [
        detokenize(list(s.tokens)) for s in corpus.sentences("test")[:12]
    ]
    kept = [t for t in candidates if annotator.detect_mentions(tokenize(t))]
    assert len(kept) >= 4, "test corpus must yield mention-bearing texts"
    return (kept * 3)[:12]


@pytest.fixture(autouse=True)
def _reset_payload_store(model):
    # Every test leaves the module-scoped model on its default dense
    # path, whatever backend it attached.
    yield
    model.embedder.invalidate_static_cache()


def _planes(rows=100, dim=8, seed=0, entity_part=True):
    rng = np.random.default_rng(seed)
    planes = {"static": rng.normal(size=(rows, dim)).astype(np.float32)}
    if entity_part:
        planes["entity_part"] = rng.normal(size=(rows, dim)).astype(np.float32)
    return planes


def annotations_equal(a, b):
    assert len(a) == len(b)
    for doc_a, doc_b in zip(a, b):
        assert [dataclasses.asdict(m) for m in doc_a] == [
            dataclasses.asdict(m) for m in doc_b
        ]


# ----------------------------------------------------------------------
# Dense backend
# ----------------------------------------------------------------------
class TestDenseStore:
    def test_gather_matches_direct_indexing(self):
        planes = _planes()
        store = DensePayloadStore(planes["static"], planes["entity_part"])
        ids = np.array([[3, 7], [0, 99]])
        out = store.gather(ids)
        assert np.array_equal(out, planes["static"][ids])
        assert out.flags.writeable
        out[...] = 0  # fresh copy: the plane must be untouched
        assert not np.array_equal(planes["static"][ids], out)
        part = store.gather_entity_part(np.array([1, 2]))
        assert np.array_equal(part, planes["entity_part"][[1, 2]])

    def test_missing_entity_part_raises(self):
        store = DensePayloadStore(_planes(entity_part=False)["static"])
        assert not store.has_entity_part
        with pytest.raises(StoreError):
            store.gather_entity_part(np.array([0]))

    def test_export_restore_roundtrip(self):
        planes = _planes()
        store = DensePayloadStore(planes["static"], planes["entity_part"])
        clone = restore_from_export(store.export_meta(), store.export_arrays())
        assert clone.kind == "dense"
        ids = np.arange(10)
        assert np.array_equal(clone.gather(ids), store.gather(ids))

    def test_unknown_kind_rejected(self):
        with pytest.raises(StoreError):
            restore_from_export({"kind": "nope"}, {})


# ----------------------------------------------------------------------
# Sharded mmap backend
# ----------------------------------------------------------------------
class TestShardedWriter:
    def test_rejects_bad_geometry(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path, shard_rows=4)
        with pytest.raises(StoreError):
            writer.append("bad name", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(StoreError):
            writer.append("static", np.zeros(6, dtype=np.float32))
        writer.append("static", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(StoreError):  # dim changed mid-stream
            writer.append("static", np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(StoreError):  # dtype changed mid-stream
            writer.append("static", np.zeros((2, 3), dtype=np.float64))

    def test_finalize_requires_static_and_equal_rows(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path / "a", shard_rows=4)
        writer.append("entity_part", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(StoreError, match="static"):
            writer.finalize()
        writer = ShardedStoreWriter(tmp_path / "b", shard_rows=4)
        writer.append("static", np.zeros((3, 3), dtype=np.float32))
        writer.append("entity_part", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(StoreError, match="rows"):
            writer.finalize()

    def test_double_finalize_rejected(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path, shard_rows=4)
        writer.append("static", np.zeros((2, 3), dtype=np.float32))
        writer.finalize()
        with pytest.raises(StoreError):
            writer.finalize()
        with pytest.raises(StoreError):
            writer.append("static", np.zeros((2, 3), dtype=np.float32))


class TestMmapStore:
    def test_roundtrip_and_warm_path(self, tmp_path):
        planes = _planes(rows=100, dim=8)
        manifest = write_sharded_store(tmp_path, planes, shard_rows=16)
        assert manifest["num_rows"] == 100
        store = ShardedMmapStore.open(tmp_path)
        assert store.num_rows == 100
        assert store.hidden_dim == 8
        assert store.has_entity_part
        ids = np.random.default_rng(1).integers(0, 100, size=(5, 4))
        assert np.array_equal(store.gather(ids), planes["static"][ids])
        assert np.array_equal(
            store.gather_entity_part(ids), planes["entity_part"][ids]
        )
        store.warm()
        assert store.attached_shards() >= -(-100 // 16)
        out = store.gather(ids)  # full-span fast path
        assert np.array_equal(out, planes["static"][ids])
        assert out.flags.writeable
        store.close()

    def test_budget_evicts_lru_and_stays_correct(self, tmp_path):
        planes = _planes(rows=1000, dim=16, entity_part=False)
        write_sharded_store(tmp_path, planes, shard_rows=128)
        shard_bytes = 128 * 16 * 4
        store = ShardedMmapStore.open(tmp_path, memory_budget_bytes=2 * shard_bytes)
        rng = np.random.default_rng(2)
        for _ in range(6):
            ids = rng.integers(0, 1000, size=200)
            assert np.array_equal(store.gather(ids), planes["static"][ids])
            assert store.resident_bytes() <= 2 * shard_bytes
            assert store.attached_shards() <= 2
        store.close()
        assert store.resident_bytes() == 0
        with pytest.raises(StoreError):
            store.gather(np.array([0]))

    def test_out_of_range_id_rejected(self, tmp_path):
        write_sharded_store(
            tmp_path, _planes(rows=64, dim=4, entity_part=False), shard_rows=16
        )
        store = ShardedMmapStore.open(
            tmp_path, memory_budget_bytes=16 * 4 * 4
        )
        with pytest.raises(StoreError, match="out of range"):
            store.gather(np.array([500]))

    def test_open_validates_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            ShardedMmapStore.open(tmp_path / "empty")
        store_dir = tmp_path / "store"
        write_sharded_store(
            store_dir, _planes(rows=10, dim=4, entity_part=False), shard_rows=4
        )
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "someone-else/v9"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format"):
            ShardedMmapStore.open(store_dir)

    def test_open_validates_file_sizes(self, tmp_path):
        write_sharded_store(
            tmp_path, _planes(rows=10, dim=4, entity_part=False), shard_rows=4
        )
        payload = tmp_path / "static.payload"
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(StoreError, match="bytes"):
            ShardedMmapStore.open(tmp_path)

    def test_export_meta_is_picklable_and_reopens(self, tmp_path):
        planes = _planes(rows=50, dim=4, entity_part=False)
        write_sharded_store(tmp_path, planes, shard_rows=16)
        store = ShardedMmapStore.open(tmp_path, memory_budget_bytes=1 << 20)
        meta = pickle.loads(pickle.dumps(store.export_meta()))
        assert store.export_arrays() == {}  # files travel via the OS, not shm
        clone = restore_from_export(meta, {})
        assert clone.memory_budget_bytes == 1 << 20
        ids = np.arange(50)
        assert np.array_equal(clone.gather(ids), planes["static"][ids])

    def test_gather_emits_store_metrics(self, tmp_path):
        planes = _planes(rows=64, dim=4, entity_part=False)
        write_sharded_store(tmp_path, planes, shard_rows=16)
        with obs.scope(fresh=True) as (metrics, _tracer):
            store = ShardedMmapStore.open(
                tmp_path, memory_budget_bytes=2 * 16 * 4 * 4
            )
            for start in (0, 16, 32, 48):
                store.gather(np.arange(start, start + 16))
            snapshot = metrics.to_dict()
        assert snapshot["counters"]["store.shard_attach"] == 4
        assert snapshot["counters"]["store.shard_detach"] == 2
        assert snapshot["gauges"]["store.resident_bytes"] == 2 * 16 * 4 * 4
        assert snapshot["histograms"]["store.row_gather_seconds"]["count"] == 4


# ----------------------------------------------------------------------
# Tiered backend (top-k% compression on the payload plane)
# ----------------------------------------------------------------------
class TestTieredStore:
    def test_build_validation(self):
        planes = _planes(rows=40, dim=8)
        counts = np.zeros(40)
        with pytest.raises(StoreError):
            TieredPayloadStore.build(planes, counts, keep_percent=150.0)
        with pytest.raises(StoreError):
            TieredPayloadStore.build(
                {"static": planes["static"]}, counts, keep_percent=10.0
            )
        with pytest.raises(StoreError):
            TieredPayloadStore.build(planes, np.zeros(7), keep_percent=10.0)

    def test_head_exact_tail_shares_entity(self):
        planes = _planes(rows=40, dim=8, seed=3)
        counts = np.zeros(40)
        counts[:10] = np.arange(10, 0, -1)  # entities 0..9 popular
        store = TieredPayloadStore.build(planes, counts, keep_percent=25.0)
        assert store.num_rows == 40
        assert store.head_rows_kept == 10
        head = np.arange(10)
        assert np.array_equal(store.gather(head), planes["static"][head])
        assert np.array_equal(
            store.gather_entity_part(head), planes["entity_part"][head]
        )
        # Every tail entity carries the one shared replacement
        # contribution; its full row round-trips within uint8 error.
        tail = np.arange(10, 40)
        part = store.gather_entity_part(tail)
        assert np.all(part == part[0])
        base = planes["static"][tail] - planes["entity_part"][tail]
        bound = (base.max(axis=1) - base.min(axis=1)) / 255.0 / 2.0 + 1e-6
        err = np.abs(store.gather(tail) - (base + part))
        assert np.all(err <= bound[:, None])
        # Tiering shrinks the payload: uint8 tail beats float32 rows.
        dense_bytes = sum(p.nbytes for p in planes.values())
        assert store.resident_bytes() < dense_bytes

    def test_export_roundtrip_and_missing_component(self):
        planes = _planes(rows=30, dim=4, seed=4)
        counts = np.arange(30)
        store = TieredPayloadStore.build(planes, counts, keep_percent=20.0)
        arrays = store.export_arrays()
        clone = restore_from_export(store.export_meta(), arrays)
        ids = np.arange(30)
        assert np.array_equal(clone.gather(ids), store.gather(ids))
        assert clone.keep_percent == 20.0
        broken = dict(arrays)
        del broken["tail_q"]
        with pytest.raises(StoreError, match="tail_q"):
            restore_from_export(store.export_meta(), broken)

    def test_agrees_with_compress_then_dense(self, model, counts):
        """Tiering the payload == compressing the table, then caching.

        Head rows must match bitwise; tail rows up to the uint8
        quantization the tiered store applies to the entity-independent
        part. Uses the same default rng as compressed_embeddings so both
        paths pick the same replacement entity.
        """
        embedder = model.embedder
        planes = {k: v.copy() for k, v in embedder.payload_planes().items()}
        store = TieredPayloadStore.build(planes, counts, keep_percent=10.0)
        with compressed_embeddings(model, counts, keep_percent=10.0):
            assert not embedder.static_cache_ready  # compress dropped it
            compressed = embedder.payload_planes()
            head = np.flatnonzero(store._head_slot >= 0)
            tail = np.flatnonzero(store._head_slot < 0)
            assert np.array_equal(
                store.gather(head), compressed["static"][head]
            )
            np.testing.assert_allclose(
                store.gather_entity_part(tail),
                compressed["entity_part"][tail],
                rtol=0,
                atol=1e-12,
            )
            base = planes["static"][tail] - planes["entity_part"][tail]
            bound = (base.max(axis=1) - base.min(axis=1)) / 255.0 / 2.0 + 1e-6
            err = np.abs(store.gather(tail) - compressed["static"][tail])
            assert np.all(err <= bound[:, None])
        # Exiting the context restored the table AND dropped the
        # compressed cache (the regression this guards: a stale cache
        # made compression a silent no-op).
        assert not embedder.static_cache_ready
        restored = embedder.payload_planes()
        np.testing.assert_allclose(restored["static"], planes["static"])


# ----------------------------------------------------------------------
# Embedder integration
# ----------------------------------------------------------------------
class TestEmbedderIntegration:
    def test_attach_validates_row_count(self, model):
        with pytest.raises(ConfigError, match="rows"):
            model.embedder.attach_payload_store(
                DensePayloadStore(np.zeros((3, 8), dtype=np.float32))
            )

    def test_static_only_store_on_entity_model_raises(self, model, tmp_path):
        # The model subtracts the entity contribution on padded slots;
        # a store without that plane must fail loudly, not silently
        # skip the subtraction.
        with compute_dtype(np.float32):
            planes = model.embedder.payload_planes()
            write_sharded_store(
                tmp_path, {"static": planes["static"]}, shard_rows=32
            )
            model.embedder.attach_payload_store(ShardedMmapStore.open(tmp_path))
            ids = np.zeros((1, 1, 4), dtype=np.int64)
            mask = np.array([[[True, True, False, False]]])
            with pytest.raises(StoreError):
                model.embedder.forward_cached(
                    ids, mask, predicted_type=_zero_predicted_type(model)
                )

    def test_annotations_identical_dense_vs_mmap(
        self, model, annotator, texts, tmp_path
    ):
        with compute_dtype(np.float32):
            dense_out = annotator.annotate_batch(texts)
            write_sharded_store(
                tmp_path, model.embedder.payload_planes(), shard_rows=32
            )
            model.embedder.attach_payload_store(ShardedMmapStore.open(tmp_path))
            mmap_out = annotator.annotate_batch(texts)
            assert model.embedder.payload_store.kind == "mmap"
        annotations_equal(dense_out, mmap_out)


def _zero_predicted_type(model):
    from repro.nn.tensor import Tensor

    type_dim = model.embedder.config.type_dim
    return Tensor(np.zeros((1, 1, type_dim), dtype=np.float32))


# ----------------------------------------------------------------------
# Process-boundary plumbing (shm descriptor + annotator pool)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)
class TestPoolIntegration:
    def test_manifest_store_descriptor_roundtrips(self):
        meta = {"kind": "mmap", "store_dir": "/x", "memory_budget_bytes": None}
        with SharedArrayStore.export(
            {"a": np.ones((2, 2))}, store_meta=meta
        ) as shm_store:
            clone = pickle.loads(pickle.dumps(shm_store.manifest))
            assert clone.store == meta
        with SharedArrayStore.export({"a": np.ones((2, 2))}) as shm_store:
            assert shm_store.manifest.store is None

    def test_pool_serves_mmap_store(self, model, annotator, texts, tmp_path):
        with compute_dtype(np.float32):
            serial = annotator.annotate_batch(texts)
            write_sharded_store(
                tmp_path, model.embedder.payload_planes(), shard_rows=32
            )
            model.embedder.attach_payload_store(ShardedMmapStore.open(tmp_path))
            with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
                parallel = pool.annotate_batch(texts, chunk_size=5)
        annotations_equal(serial, parallel)

    def test_pool_serves_tiered_store(self, model, annotator, texts, counts):
        with compute_dtype(np.float32):
            store = TieredPayloadStore.build(
                model.embedder.payload_planes(), counts, keep_percent=50.0
            )
            model.embedder.attach_payload_store(store)
            serial = annotator.annotate_batch(texts)
            with AnnotatorPool.from_annotator(annotator, workers=2) as pool:
                parallel = pool.annotate_batch(texts, chunk_size=5)
        annotations_equal(serial, parallel)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliStoreFlags:
    def _args(self, **overrides):
        import argparse

        defaults = {
            "store": "dense",
            "store_dir": None,
            "keep_percent": 10.0,
            "store_budget_mb": None,
        }
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_dense_is_noop(self, model):
        from repro.cli import _configure_store

        _configure_store(model, self._args(), None)
        assert not model.embedder.static_cache_ready

    def test_mmap_requires_store_dir(self, model):
        from repro.cli import _configure_store

        with pytest.raises(StoreError, match="store-dir"):
            _configure_store(model, self._args(store="mmap"), None)

    def test_tiered_requires_counts(self, model):
        from repro.cli import _configure_store

        with pytest.raises(StoreError, match="counts"):
            _configure_store(model, self._args(store="tiered"), None)

    def test_mmap_writes_then_reopens(self, model, tmp_path, capsys):
        from repro.cli import _configure_store

        args = self._args(
            store="mmap", store_dir=str(tmp_path), store_budget_mb=64.0
        )
        _configure_store(model, args, None)
        assert (tmp_path / "manifest.json").exists()
        assert model.embedder.payload_store.kind == "mmap"
        first = model.embedder.payload_store
        assert first.memory_budget_bytes == 64 * 2**20
        # Second run re-opens the existing store rather than rewriting.
        mtime = (tmp_path / "static.payload").stat().st_mtime_ns
        model.embedder.invalidate_static_cache()
        _configure_store(model, args, None)
        assert (tmp_path / "static.payload").stat().st_mtime_ns == mtime
        capsys.readouterr()

    def test_tiered_attaches(self, model, counts, capsys):
        from repro.cli import _configure_store

        _configure_store(
            model, self._args(store="tiered", keep_percent=20.0), counts
        )
        store = model.embedder.payload_store
        assert store.kind == "tiered"
        assert store.keep_percent == 20.0
        capsys.readouterr()

    def test_parser_exposes_store_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "annotate", "--world", "w.npz", "--model", "m.npz",
                "--text", "x", "--store", "tiered", "--keep-percent", "25",
            ]
        )
        assert args.store == "tiered"
        assert args.keep_percent == 25.0
