"""Untimed, cached preparation: the world, the trained model, the inputs.

The world, its training corpus and the model depend only on the
benchmark profile and on the package source, never on the workload
seed: training once per source tree keeps every run inside its time
limit, and a fixed KB means the seed varies the documents annotated
rather than the system annotating them. The output lives under
``.bench_build/bench_e2e/`` in the checkout, keyed by a hash of
``src/`` and the profile, so each commit's accuracy comes from a model
its own code trained.

The workload seed generates a fresh held-out corpus on the same world
and the order its documents arrive in. Its train split is Zipf-sampled like real traffic; its validation and
test splits mix in uniformly drawn entities, so they are tail-enriched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.model import MODEL_PRESETS, BootlegConfig, BootlegModel
from repro.core.trainer import TrainConfig, Trainer
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.corpus.vocab import SPECIAL_TOKENS, Vocabulary
from repro.kb import WorldConfig, generate_world
from repro.kb.io import save_world
from repro.nn.serialize import load_module, save_module

# The KB and training corpus seed. Held-out corpora use seeds from
# HELD_OUT_SEED_BASE up, so they never coincide with the training one.
WORLD_SEED = 7919
HELD_OUT_SEED_BASE = 1_000_000


@dataclasses.dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration."""

    name: str
    num_entities: int
    train_pages: int
    epochs: int
    tail_pages: int  # held-out pages generated for the tail workloads
    tail_docs: int  # documents per pass on the tail workloads
    zipf_pages: int  # held-out pages generated for the cascade workload
    zipf_docs: int  # documents per pass on the cascade workload
    call_size: int  # documents per bulk call
    setups: int  # set-ups per run; setup_s is their median
    min_passes: int  # timed passes per run, even past --seconds


FULL = Profile(
    name="full",
    num_entities=5000,
    train_pages=1200,
    epochs=4,
    tail_pages=1100,
    tail_docs=1500,
    # The cascade workload's cost follows the share of documents tier 0
    # escalates, which varies with the seed's draw of entities: at 6,000
    # documents its throughput differed by 15% between seeds.
    zipf_pages=4400,
    zipf_docs=24000,
    call_size=250,
    setups=5,
    min_passes=3,
)

# Smoke-test size for the self-tests: seconds to prepare and run.
TINY = Profile(
    name="tiny",
    num_entities=200,
    train_pages=40,
    epochs=1,
    tail_pages=60,
    tail_docs=40,
    zipf_pages=60,
    zipf_docs=80,
    call_size=16,
    setups=2,
    min_passes=2,
)


@dataclasses.dataclass
class Prepared:
    """Paths and facts of one cached preparation."""

    directory: Path
    world_path: Path
    model_path: Path
    info: dict


@dataclasses.dataclass
class Document:
    """One held-out document: its text and its gold mentions."""

    text: str
    gold: list[tuple[int, int, int]]  # (start, end, entity id)


def source_digest(src: Path) -> str:
    """SHA-256 over every source file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        if path.suffix in (".pyc", ".pyo"):
            continue
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_root(root: Path) -> Path:
    return root / ".bench_build" / "bench_e2e"


def prepare(root: Path, profile: Profile) -> Prepared:
    """Return the cached world + model, building them on first use.

    The build runs in a child process, so training leaves nothing in
    the measured process's heap or memory footprint.
    """
    src_hash = source_digest(root / "src")
    trained = [profile.num_entities, profile.train_pages, profile.epochs]
    key = hashlib.sha256(
        json.dumps([src_hash, WORLD_SEED, trained]).encode()
    ).hexdigest()[:16]
    directory = cache_root(root) / f"{profile.name}-{key}"
    info_path = directory / "prepare.json"
    if not info_path.exists():
        staging = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        # The child inherits the pinned thread settings; its output goes
        # to stderr so stdout stays the benchmark's.
        path = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        subprocess.run(
            [sys.executable, __file__, str(staging), profile.name],
            check=True,
            stdout=sys.stderr,
            env={**os.environ, "PYTHONPATH": path},
        )
        info = json.loads((staging / "prepare.json").read_text())
        info["src_sha256"] = src_hash
        (staging / "prepare.json").write_text(json.dumps(info, indent=1))
        try:
            staging.rename(directory)
        except OSError:
            # Another run finished the same preparation first.
            shutil.rmtree(staging, ignore_errors=True)
    info = json.loads(info_path.read_text())
    return Prepared(
        directory, directory / "world.json.gz", directory / "model.npz", info
    )


def _build(directory: Path, profile: Profile) -> None:
    started = time.perf_counter()
    world = generate_world(
        WorldConfig(num_entities=profile.num_entities, seed=WORLD_SEED)
    )
    save_world(world, directory / "world.json.gz")
    corpus = generate_corpus(
        world, CorpusConfig(num_pages=profile.train_pages, seed=WORLD_SEED)
    )
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    # The package's `repro train` defaults, apart from the epoch count.
    config = BootlegConfig(num_candidates=6, **MODEL_PRESETS["bootleg"])
    dataset = NedDataset(
        corpus, "train", vocab, world.candidate_map, config.num_candidates,
        kgs=[world.kg],
    )
    model = BootlegModel(config, world.kb, vocab, entity_counts=counts.counts)
    history = Trainer(
        model,
        dataset,
        TrainConfig(
            epochs=profile.epochs,
            batch_size=32,
            learning_rate=3e-3,
            seed=WORLD_SEED,
        ),
    ).train()
    save_module(
        model,
        directory / "model.npz",
        metadata={
            "model_config": dataclasses.asdict(config),
            "vocab_tokens": [
                vocab.decode_id(i) for i in range(len(SPECIAL_TOKENS), len(vocab))
            ],
            "entity_counts": counts.counts.tolist(),
        },
    )
    info = {
        "profile": profile.name,
        "world_seed": WORLD_SEED,
        "num_entities": world.num_entities,
        "train_pages": profile.train_pages,
        "train_mentions": corpus.num_mentions("train"),
        "epochs": len(history),
        "final_loss": history[-1].mean_loss if history else None,
        "prepare_seconds": time.perf_counter() - started,
    }
    (directory / "prepare.json").write_text(json.dumps(info, indent=1))


def load_model(world, model_path: Path):
    """Rebuild a model from a checkpoint the way ``repro annotate`` does.

    Returns ``(model, vocab, config, entity_counts)``.
    """
    with np.load(model_path) as archive:
        metadata = json.loads(archive["__metadata__"].tobytes().decode("utf-8"))
    vocab = Vocabulary.build([metadata["vocab_tokens"]])
    config = BootlegConfig(**metadata["model_config"])
    entity_counts = np.asarray(metadata["entity_counts"])
    model = BootlegModel(config, world.kb, vocab, entity_counts=entity_counts)
    load_module(model, model_path)
    model.eval()
    return model, vocab, config, entity_counts


def held_out_documents(
    world, profile: Profile, seed: int, kind: str
) -> list[Document]:
    """The held-out documents of ``kind`` ("tail" or "zipf") for ``seed``,
    in an order shuffled by ``seed``."""
    tail = kind == "tail"
    corpus = generate_corpus(
        world,
        CorpusConfig(
            num_pages=profile.tail_pages if tail else profile.zipf_pages,
            seed=HELD_OUT_SEED_BASE + seed,
        ),
    )
    if tail:
        sentences = corpus.sentences("val") + corpus.sentences("test")
    else:
        sentences = corpus.sentences("train")
    documents = [
        Document(
            detokenize(list(sentence.tokens)),
            [(m.start, m.end, m.gold_entity_id) for m in sentence.mentions],
        )
        for sentence in sentences
        if sentence.mentions
    ]
    documents = documents[: profile.tail_docs if tail else profile.zipf_docs]
    # Sentences of one page share its entities, so in page order one
    # ambiguous page put up to 16 of a call's 250 documents through the
    # model where the median call had 5, and that call alone set the
    # latency tail. Independent documents arrive in no page order.
    random.Random(seed).shuffle(documents)
    return documents


if __name__ == "__main__":
    # python3 prepare.py <output directory> <profile name>
    _build(Path(sys.argv[1]), {p.name: p for p in (FULL, TINY)}[sys.argv[2]])
