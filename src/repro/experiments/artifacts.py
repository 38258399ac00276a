"""Experiment workspaces: build once, train once, reuse everywhere.

A workspace bundles the synthetic world, the (weak-labeled) corpus,
vocabulary, entity counts, and train/val/test datasets for one
experiment scale. Named models are trained on demand and cached on disk
(keyed by a hash of every relevant config), so the benchmark harness and
the example scripts can share artifacts across processes.

Two standard scales mirror the paper's setups:

- :func:`wiki_workspace` — the "full Wikipedia" analogue used for
  Table 2, Figure 1, Figure 3, Table 7/8, Figure 4;
- :func:`micro_workspace` — the "Wikipedia subset" analogue (B.1) used
  for the regularization / weak-labeling ablations (Tables 6, 9, 11).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from pathlib import Path

from repro.baselines.ned_base import NedBaseConfig, NedBaseModel
from repro.core.model import BootlegConfig, BootlegModel
from repro.core.trainer import TrainConfig, Trainer, predict
from repro.corpus.dataset import NedDataset, build_vocabulary
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.stats import EntityCounts
from repro.errors import ConfigError
from repro.eval.predictions import MentionPrediction
from repro.kb.knowledge_graph import KnowledgeGraph, build_cooccurrence_graph
from repro.kb.synthetic import World, WorldConfig, generate_world
from repro.nn.serialize import load_module, save_module
from repro.weaklabel.pipeline import WeakLabelReport, weak_label_corpus

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def _stable_hash(*parts: object) -> str:
    payload = "|".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class WorkspaceConfig:
    """Everything that defines an experiment workspace."""

    name: str
    world: WorldConfig
    corpus: CorpusConfig
    num_candidates: int = 6
    weak_label: bool = True
    use_cooccurrence_kg: bool = False
    cooccurrence_min_count: int = 10
    use_page_graph: bool = False
    # Append a two-hop (shared-neighbor) adjacency as an extra KG2Ent
    # input — the multi-hop extension of the paper's future work.
    use_two_hop_kg: bool = False
    train: TrainConfig = dataclasses.field(
        default_factory=lambda: TrainConfig(
            epochs=25, batch_size=32, learning_rate=3e-3, seed=1
        )
    )


class Workspace:
    """Materialized experiment data plus a cached model registry."""

    def __init__(self, config: WorkspaceConfig) -> None:
        self.config = config
        self.world: World = generate_world(config.world)
        raw_corpus = generate_corpus(self.world, config.corpus)
        self.raw_corpus = raw_corpus
        if config.weak_label:
            self.corpus, self.weak_label_report = weak_label_corpus(
                raw_corpus, self.world.kb
            )
        else:
            self.corpus, self.weak_label_report = raw_corpus, WeakLabelReport()
        self.vocab = build_vocabulary(self.corpus)
        self.counts = EntityCounts.from_corpus(self.corpus, self.world.num_entities)
        self.kgs: list[KnowledgeGraph] = [self.world.kg]
        if config.use_two_hop_kg:
            from repro.kb.knowledge_graph import TwoHopKnowledgeGraph

            self.kgs.append(TwoHopKnowledgeGraph(self.world.kg))
        if config.use_cooccurrence_kg:
            sentence_entities = (
                [m.gold_entity_id for m in s.mentions]
                for s in self.corpus.sentences("train")
            )
            self.kgs.append(
                build_cooccurrence_graph(
                    self.world.num_entities,
                    sentence_entities,
                    min_count=config.cooccurrence_min_count,
                )
            )
        self.page_graph = None
        if config.use_page_graph:
            from repro.corpus.stats import build_page_graph

            self.page_graph = build_page_graph(
                self.corpus, self.world.num_entities
            )
        self._datasets: dict[str, NedDataset] = {}

    # ------------------------------------------------------------------
    def dataset(self, split: str) -> NedDataset:
        if split not in self._datasets:
            self._datasets[split] = NedDataset(
                self.corpus,
                split,
                self.vocab,
                self.world.candidate_map,
                self.config.num_candidates,
                kgs=self.kgs,
                page_graph=self.page_graph,
            )
        return self._datasets[split]

    # ------------------------------------------------------------------
    # Model registry
    # ------------------------------------------------------------------
    def _build_model(self, spec: "ModelSpec"):
        if spec.kind == "ned_base":
            return NedBaseModel(spec.ned_base_config, self.world.kb, self.vocab)
        model = BootlegModel(
            spec.bootleg_config,
            self.world.kb,
            self.vocab,
            entity_counts=self.counts.counts,
        )
        return model

    def _cache_key(self, spec: "ModelSpec") -> str:
        return _stable_hash(
            self.config,
            spec,
        )

    def trained_model(self, spec: "ModelSpec"):
        """Train (or load from cache) a model; returns the model."""
        model = self._build_model(spec)
        key = self._cache_key(spec)
        checkpoint = cache_dir() / f"{self.config.name}_{spec.name}_{key}.npz"
        if checkpoint.exists():
            load_module(model, checkpoint)
            model.eval()
            return model
        train_config = spec.train or self.config.train
        Trainer(model, self.dataset("train"), train_config).train()
        save_module(model, checkpoint, metadata={"spec": spec.name})
        return model

    def predictions(self, spec: "ModelSpec", split: str = "val") -> list[MentionPrediction]:
        """Cached predictions of a trained model over a split."""
        key = self._cache_key(spec)
        path = cache_dir() / f"{self.config.name}_{spec.name}_{key}_{split}.pkl"
        if path.exists():
            with open(path, "rb") as handle:
                return pickle.load(handle)
        model = self.trained_model(spec)
        records = predict(model, self.dataset(split))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(records, handle)
        return records


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """A named model configuration within a workspace."""

    name: str
    kind: str = "bootleg"  # "bootleg" | "ned_base"
    bootleg_config: BootlegConfig | None = None
    ned_base_config: NedBaseConfig | None = None
    train: TrainConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("bootleg", "ned_base"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "bootleg" and self.bootleg_config is None:
            raise ConfigError("bootleg spec needs a bootleg_config")
        if self.kind == "ned_base" and self.ned_base_config is None:
            raise ConfigError("ned_base spec needs a ned_base_config")


# ----------------------------------------------------------------------
# Standard workspaces and model specs
# ----------------------------------------------------------------------
def wiki_workspace_config(seed: int = 0) -> WorkspaceConfig:
    """The "full Wikipedia" analogue (Table 2 scale)."""
    return WorkspaceConfig(
        name="wiki",
        world=WorldConfig(num_entities=400, seed=seed),
        corpus=CorpusConfig(
            num_pages=300, seed=seed, split_fractions=(0.7, 0.15, 0.15)
        ),
        train=TrainConfig(epochs=25, batch_size=32, learning_rate=3e-3, seed=1),
    )


def benchmark_workspace_config(seed: int = 0) -> WorkspaceConfig:
    """The benchmark-model setup of Appendix B.2: a 96/2/2 sentence-rich
    split, sentence co-occurrence KG module, and page-co-occurrence
    feature support."""
    return WorkspaceConfig(
        name="benchmark",
        world=WorldConfig(num_entities=400, seed=seed),
        corpus=CorpusConfig(
            num_pages=320, seed=seed + 3, split_fractions=(0.96, 0.02, 0.02)
        ),
        use_cooccurrence_kg=True,
        cooccurrence_min_count=5,
        use_page_graph=True,
        train=TrainConfig(epochs=20, batch_size=32, learning_rate=3e-3, seed=1),
    )


def benchmark_model_spec(num_candidates: int = 6) -> ModelSpec:
    """The paper's benchmark Bootleg model (Appendix B.2): two KG2Ent
    modules (Wikidata adjacency + sentence co-occurrence), the title
    word-embedding feature, the page co-occurrence feature, and a fixed
    80% entity regularization."""
    return ModelSpec(
        "bootleg_benchmark",
        bootleg_config=BootlegConfig(
            num_candidates=num_candidates,
            num_kg_modules=2,
            use_title_feature=True,
            use_page_feature=True,
            regularization="fixed",
            regularization_value=0.8,
        ),
    )


def micro_workspace_config(seed: int = 0, weak_label: bool = True) -> WorkspaceConfig:
    """The "Wikipedia subset" analogue (Tables 6/9/11 scale)."""
    return WorkspaceConfig(
        name="micro" if weak_label else "micro_nowl",
        world=WorldConfig(num_entities=300, seed=seed + 5),
        corpus=CorpusConfig(
            num_pages=180, seed=seed + 5, split_fractions=(0.7, 0.15, 0.15)
        ),
        weak_label=weak_label,
        train=TrainConfig(epochs=18, batch_size=32, learning_rate=3e-3, seed=1),
    )


def standard_model_specs(num_candidates: int = 6) -> dict[str, ModelSpec]:
    """The five Table-2 models."""
    return {
        "bootleg": ModelSpec(
            "bootleg",
            bootleg_config=BootlegConfig(num_candidates=num_candidates),
        ),
        "ned_base": ModelSpec(
            "ned_base", kind="ned_base", ned_base_config=NedBaseConfig()
        ),
        "ent_only": ModelSpec(
            "ent_only",
            bootleg_config=BootlegConfig(
                num_candidates=num_candidates,
                use_types=False,
                use_relations=False,
                num_kg_modules=0,
                use_type_prediction=False,
            ),
        ),
        "type_only": ModelSpec(
            "type_only",
            bootleg_config=BootlegConfig(
                num_candidates=num_candidates,
                use_entity=False,
                use_relations=False,
                num_kg_modules=0,
            ),
        ),
        "kg_only": ModelSpec(
            "kg_only",
            bootleg_config=BootlegConfig(
                num_candidates=num_candidates,
                use_entity=False,
                use_types=False,
                use_type_prediction=False,
            ),
        ),
    }


def regularization_model_specs(num_candidates: int = 6) -> dict[str, ModelSpec]:
    """The Table 6 / Table 9 regularization grid."""
    specs: dict[str, ModelSpec] = {}
    for percent in (0, 20, 50, 80):
        specs[f"fixed_{percent}"] = ModelSpec(
            f"fixed_{percent}",
            bootleg_config=BootlegConfig(
                num_candidates=num_candidates,
                regularization="fixed",
                regularization_value=percent / 100.0,
            ),
        )
    for scheme in ("inv_pop_pow", "inv_pop_log", "inv_pop_lin", "pop_pow"):
        specs[scheme] = ModelSpec(
            scheme,
            bootleg_config=BootlegConfig(
                num_candidates=num_candidates, regularization=scheme
            ),
        )
    return specs


def wiki_workspace(seed: int = 0) -> Workspace:
    return Workspace(wiki_workspace_config(seed))


def micro_workspace(seed: int = 0, weak_label: bool = True) -> Workspace:
    return Workspace(micro_workspace_config(seed, weak_label=weak_label))
