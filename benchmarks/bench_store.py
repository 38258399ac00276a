"""Entity payload store gates: throughput, memory budget, correctness.

Three gates, all enforced (exit 1 on failure):

(a) **Warm gather throughput** — row gathers from the sharded mmap
    store with every shard attached (the full-span fast path) must stay
    within ``--max-ratio`` (default 1.3x) of the dense in-memory store
    on a synthetically inflated payload (default 1M entities x 64
    float32).
(b) **Memory budget** — the same 1M-entity payload served with a
    shard-level LRU budget must keep ``store.resident_bytes`` (sampled
    from the obs gauge after every gather) at or under the budget while
    still returning byte-correct rows; shard attach/detach churn must
    show up in the ``store.shard_attach``/``store.shard_detach``
    counters.
(c) **Byte-identical annotations** — the annotator workload of
    ``build_perf_setup`` must produce byte-identical annotations with
    the dense and mmap backends.

``build_perf_setup`` and ``make_annotator`` also build the workload of
the disabled-overhead guards in ``tests/test_obs.py``, which load this
module by path.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.kb import WorldConfig, generate_world
from repro.nn.tensor import compute_dtype
from repro.store import (
    DEFAULT_SHARD_ROWS,
    DensePayloadStore,
    ShardedMmapStore,
    ShardedStoreWriter,
    write_sharded_store,
)


def build_perf_setup(num_entities: int = 300, num_pages: int = 60) -> dict:
    """World + float64/float32 model pair + one collated batch + texts.

    The models are untrained: the workload exercises the code paths,
    not accuracy.
    """
    world = generate_world(WorldConfig(num_entities=num_entities, seed=31))
    corpus = generate_corpus(world, CorpusConfig(num_pages=num_pages, seed=31))
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    dataset = NedDataset(
        corpus, "train", vocab, world.candidate_map, 6, kgs=[world.kg]
    )
    model = BootlegModel(
        BootlegConfig(num_candidates=6, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )
    model.eval()
    # Same weights cast to float32 for the fast path.
    model32 = BootlegModel(
        BootlegConfig(num_candidates=6, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )
    model32.load_state_dict(model.state_dict())
    model32.half_precision()
    model32.eval()
    return {
        "world": world,
        "vocab": vocab,
        "model": model,
        "model32": model32,
        "batch": dataset.collate(dataset.encoded[:32]),
        "texts": [detokenize(list(s.tokens)) for s in corpus.sentences("test")[:16]],
    }


def make_annotator(perf_setup, model):
    world = perf_setup["world"]
    return BootlegAnnotator(
        model,
        perf_setup["vocab"],
        world.candidate_map,
        world.kb,
        kgs=[world.kg],
        num_candidates=6,
    )


def _measure(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _write_synthetic_store(
    store_dir: Path, rows: int, dim: int, seed: int
) -> np.ndarray:
    """Stream a synthetic payload to disk; returns the dense copy."""
    rng = np.random.default_rng(seed)
    dense = np.empty((rows, dim), dtype=np.float32)
    writer = ShardedStoreWriter(store_dir, shard_rows=DEFAULT_SHARD_ROWS)
    for start in range(0, rows, DEFAULT_SHARD_ROWS):
        stop = min(start + DEFAULT_SHARD_ROWS, rows)
        chunk = rng.standard_normal((stop - start, dim)).astype(np.float32)
        dense[start:stop] = chunk
        writer.append("static", chunk)
    writer.finalize()
    return dense


def _gate_throughput(
    dense_store: DensePayloadStore,
    store_dir: Path,
    ids: np.ndarray,
    repeat: int,
    max_ratio: float,
    failures: list[str],
) -> None:
    mmap_store = ShardedMmapStore.open(store_dir)
    mmap_store.warm()
    # Fault every page once so the timed passes measure gather cost,
    # not first-touch disk reads.
    warm_rows = mmap_store.gather(ids)
    if not np.array_equal(warm_rows, dense_store.gather(ids)):
        failures.append("mmap gather returned different rows than dense")
    dense_seconds = _measure(lambda: dense_store.gather(ids), repeat)
    mmap_seconds = _measure(lambda: mmap_store.gather(ids), repeat)
    ratio = mmap_seconds / dense_seconds
    print(
        f"gate (a) warm gather: dense {dense_seconds * 1e3:.2f}ms, "
        f"mmap {mmap_seconds * 1e3:.2f}ms, ratio {ratio:.2f}x "
        f"(max {max_ratio:.2f}x)"
    )
    if ratio > max_ratio:
        failures.append(
            f"warm mmap gather is {ratio:.2f}x dense, above the "
            f"{max_ratio:.2f}x gate"
        )
    mmap_store.close()


def _gate_budget(
    dense: np.ndarray,
    store_dir: Path,
    budget_shards: int,
    batches: int,
    batch_size: int,
    seed: int,
    failures: list[str],
) -> None:
    rows, dim = dense.shape
    shard_bytes = DEFAULT_SHARD_ROWS * dim * dense.dtype.itemsize
    budget = budget_shards * shard_bytes
    payload_bytes = rows * dim * dense.dtype.itemsize
    num_shards = -(-rows // DEFAULT_SHARD_ROWS)
    obs.reset()
    obs.enable()
    store = ShardedMmapStore.open(store_dir, memory_budget_bytes=budget)
    rng = np.random.default_rng(seed)
    max_resident = 0.0
    correct = True
    for _ in range(batches):
        ids = rng.integers(0, rows, size=batch_size)
        out = store.gather(ids)
        correct = correct and np.array_equal(out, dense[ids])
        gauge = obs.metrics.gauge("store.resident_bytes").value
        max_resident = max(max_resident, float(gauge or 0.0))
    attaches = obs.metrics.counter("store.shard_attach").value
    detaches = obs.metrics.counter("store.shard_detach").value
    store.close()
    obs.disable()
    obs.reset()
    print(
        f"gate (b) budget: payload {payload_bytes / 2**20:.0f} MiB served "
        f"under {budget / 2**20:.0f} MiB; max store.resident_bytes "
        f"{max_resident / 2**20:.1f} MiB, {attaches} attaches, "
        f"{detaches} detaches"
    )
    if not correct:
        failures.append("budgeted mmap gather returned wrong rows")
    if max_resident > budget:
        failures.append(
            f"store.resident_bytes peaked at {max_resident / 2**20:.1f} MiB, "
            f"above the {budget / 2**20:.0f} MiB budget"
        )
    if max_resident <= 0:
        failures.append("store.resident_bytes gauge was never set")
    if num_shards > budget_shards and (attaches <= budget_shards or detaches <= 0):
        failures.append(
            "expected shard churn under budget "
            f"(attaches={attaches}, detaches={detaches})"
        )


def _gate_annotations(failures: list[str]) -> None:
    setup = build_perf_setup()
    model = setup["model32"]
    annotator = make_annotator(setup, model)
    texts = setup["texts"] * 4
    with compute_dtype(np.float32):
        dense_out = annotator.annotate_batch(texts)
        with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
            # Shard small enough that the tiny model's payload actually
            # splits into several windows.
            write_sharded_store(
                tmp, model.embedder.payload_planes(), shard_rows=64
            )
            model.embedder.attach_payload_store(ShardedMmapStore.open(tmp))
            mmap_out = annotator.annotate_batch(texts)
            same = [
                [dataclasses.asdict(m) for m in doc] for doc in dense_out
            ] == [[dataclasses.asdict(m) for m in doc] for doc in mmap_out]
            model.embedder.invalidate_static_cache()
    print(f"gate (c) annotations dense vs mmap: {'identical' if same else 'DIVERGED'}")
    if not same:
        failures.append("annotations diverged between dense and mmap backends")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="synthetic payload entities (default 1M)")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--batch", type=int, default=65_536,
                        help="ids per timed gather")
    parser.add_argument("--max-ratio", type=float, default=1.3,
                        help="warm mmap/dense gather ceiling (gate a)")
    parser.add_argument("--budget-shards", type=int, default=2,
                        help="resident budget in shards (gate b)")
    parser.add_argument("--budget-batches", type=int, default=8)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="reuse/keep the synthetic store here "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        store_dir = args.store_dir or Path(tmp)
        print(
            f"writing synthetic payload: {args.rows} x {args.dim} float32 "
            f"({args.rows * args.dim * 4 / 2**20:.0f} MiB), "
            f"shard_rows {DEFAULT_SHARD_ROWS}"
        )
        dense = _write_synthetic_store(store_dir, args.rows, args.dim, args.seed)
        dense_store = DensePayloadStore(dense)
        ids = np.random.default_rng(args.seed + 1).integers(
            0, args.rows, size=args.batch
        )
        _gate_throughput(
            dense_store, store_dir, ids, args.repeat, args.max_ratio, failures
        )
        _gate_budget(
            dense, store_dir, args.budget_shards, args.budget_batches,
            args.batch, args.seed + 2, failures,
        )
    _gate_annotations(failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
