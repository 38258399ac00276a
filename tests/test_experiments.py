"""Tests for the experiments layer (workspaces, caching, model specs)."""

import pytest

from repro.baselines import NedBaseConfig
from repro.core import BootlegConfig, TrainConfig
from repro.corpus import CorpusConfig
from repro.errors import ConfigError
from repro.experiments import (
    ModelSpec,
    Workspace,
    WorkspaceConfig,
    regularization_model_specs,
    standard_model_specs,
)
from repro.kb import WorldConfig


@pytest.fixture()
def tiny_config(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return WorkspaceConfig(
        name="tiny",
        world=WorldConfig(num_entities=120, seed=21),
        corpus=CorpusConfig(num_pages=30, seed=21),
        num_candidates=4,
        train=TrainConfig(epochs=1, batch_size=16, learning_rate=3e-3, seed=2),
    )


class TestWorkspace:
    def test_builds_all_artifacts(self, tiny_config):
        workspace = Workspace(tiny_config)
        assert workspace.world.num_entities == 120
        assert len(workspace.dataset("train")) > 0
        assert len(workspace.dataset("val")) > 0
        assert workspace.counts.counts.shape == (120,)
        assert workspace.weak_label_report.total_weak_labels > 0

    def test_weak_label_toggle(self, tiny_config, tmp_path, monkeypatch):
        import dataclasses

        config = dataclasses.replace(tiny_config, name="tiny_nowl", weak_label=False)
        workspace = Workspace(config)
        assert workspace.weak_label_report.total_weak_labels == 0

    def test_cooccurrence_kg(self, tiny_config):
        import dataclasses

        config = dataclasses.replace(
            tiny_config, name="tiny_cooc", use_cooccurrence_kg=True,
            cooccurrence_min_count=2,
        )
        workspace = Workspace(config)
        assert len(workspace.kgs) == 2

    def test_training_and_prediction_cache(self, tiny_config):
        workspace = Workspace(tiny_config)
        spec = ModelSpec(
            "mini",
            bootleg_config=BootlegConfig(
                num_candidates=4, hidden_dim=32, entity_dim=32,
                type_dim=16, relation_dim=16,
            ),
        )
        predictions_first = workspace.predictions(spec, "val")
        assert predictions_first
        # Second call must come from cache and be identical.
        fresh = Workspace(tiny_config)
        predictions_second = fresh.predictions(spec, "val")
        assert len(predictions_first) == len(predictions_second)
        for a, b in zip(predictions_first, predictions_second):
            assert a.predicted_entity_id == b.predicted_entity_id

    def test_cache_key_sensitive_to_spec(self, tiny_config):
        workspace = Workspace(tiny_config)
        spec_a = ModelSpec("a", bootleg_config=BootlegConfig(num_candidates=4))
        spec_b = ModelSpec(
            "b", bootleg_config=BootlegConfig(num_candidates=4, use_types=False,
                                              use_type_prediction=False)
        )
        assert workspace._cache_key(spec_a) != workspace._cache_key(spec_b)


class TestModelSpecs:
    def test_standard_specs_complete(self):
        specs = standard_model_specs()
        assert set(specs) == {"bootleg", "ned_base", "ent_only", "type_only", "kg_only"}
        assert specs["ned_base"].kind == "ned_base"
        assert specs["type_only"].bootleg_config.use_entity is False

    def test_regularization_specs_cover_grid(self):
        specs = regularization_model_specs()
        names = set(specs)
        assert {"fixed_0", "fixed_20", "fixed_50", "fixed_80"} <= names
        assert {"inv_pop_pow", "inv_pop_log", "inv_pop_lin", "pop_pow"} <= names

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec("bad", kind="transformer")
        with pytest.raises(ConfigError):
            ModelSpec("bad", kind="bootleg")
        with pytest.raises(ConfigError):
            ModelSpec("bad", kind="ned_base")
        ModelSpec("ok", kind="ned_base", ned_base_config=NedBaseConfig())
