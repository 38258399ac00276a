"""Per-table/figure reproduction logic.

Every public function here regenerates one table or figure of the paper
from a :class:`~repro.experiments.artifacts.Workspace` (or a standalone
simulation), returning structured rows; ``render_*`` helpers format them
like the paper's tables. The benchmark harness under ``benchmarks/``
calls these and prints the results.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.baselines.simple import most_popular_predictions
from repro.benchmarks_data.suites import build_all_suites
from repro.core.compress import compressed_embeddings
from repro.core.trainer import TrainConfig, Trainer, predict
from repro.corpus.dataset import NedDataset
from repro.corpus.stats import EntityCounts
from repro.downstream.relation_model import (
    RelationModel,
    TacredDataset,
    extract_bootleg_features,
)
from repro.downstream.tacred import (
    NO_RELATION,
    TacredConfig,
    generate_tacred,
    split_examples,
    tacred_micro_f1,
)
from repro.eval.errors import ERROR_BUCKETS, classify_errors, exact_match_disagreements
from repro.eval.metrics import PRF, micro_f1, prf_from_counts
from repro.eval.patterns import (
    PatternSlicer,
    mine_affordance_keywords,
    slice_coverage,
    slice_predictions,
)
from repro.eval.predictions import MentionPrediction
from repro.eval.slices import (
    f1_by_bucket,
    f1_by_occurrence_bins,
    mentions_by_bucket,
)
from repro.experiments.artifacts import (
    ModelSpec,
    Workspace,
    regularization_model_specs,
    standard_model_specs,
)
from repro.nn.serialize import parameter_size_mb
from repro.utils.tables import format_table

BUCKET_COLUMNS = ("all", "torso", "tail", "unseen")


def _predictions_over(
    workspace: Workspace, spec: ModelSpec, splits: Sequence[str]
) -> list[MentionPrediction]:
    """Concatenate cached predictions over several splits.

    The micro workspace's evaluation slices are small; pooling val+test
    (both held out at the page level) doubles the unseen-slice size and
    halves its noise floor.
    """
    records: list[MentionPrediction] = []
    for split in splits:
        records.extend(workspace.predictions(spec, split))
    return records


# ----------------------------------------------------------------------
# Table 2 — main Wikipedia comparison
# ----------------------------------------------------------------------
def table2_rows(
    workspace: Workspace, splits: Sequence[str] = ("val", "test")
) -> dict[str, dict[str, float]]:
    """Model name -> {all/torso/tail/unseen -> F1} over held-out splits."""
    specs = standard_model_specs(workspace.config.num_candidates)
    rows: dict[str, dict[str, float]] = {}
    for name in ("ned_base", "bootleg", "ent_only", "type_only", "kg_only"):
        predictions = _predictions_over(workspace, specs[name], splits)
        rows[name] = f1_by_bucket(predictions, workspace.counts)
    any_predictions = _predictions_over(workspace, specs["bootleg"], splits)
    rows["# mentions"] = {
        k: float(v)
        for k, v in mentions_by_bucket(any_predictions, workspace.counts).items()
    }
    return rows


def render_table2(rows: dict[str, dict[str, float]]) -> str:
    """Format Table 2 rows as the paper's table."""
    body = [
        [name, *[rows[name].get(col, 0.0) for col in BUCKET_COLUMNS]]
        for name in rows
    ]
    return format_table(
        ["Model", "All", "Torso", "Tail", "Unseen"],
        body,
        title="Table 2 — Wikipedia validation F1 by popularity bucket",
    )


# ----------------------------------------------------------------------
# Figure 1 (right) — F1 vs occurrence count
# ----------------------------------------------------------------------
def figure1_series(workspace: Workspace, splits: Sequence[str] = ("val", "test")):
    """(bin label, ned_base F1, bootleg F1, #mentions) rows."""
    specs = standard_model_specs(workspace.config.num_candidates)
    base = f1_by_occurrence_bins(
        _predictions_over(workspace, specs["ned_base"], splits), workspace.counts
    )
    boot = f1_by_occurrence_bins(
        _predictions_over(workspace, specs["bootleg"], splits), workspace.counts
    )
    return [
        (b.label, b.f1, t.f1, b.num_mentions) for b, t in zip(base, boot)
    ]


def render_figure1(series) -> str:
    """Format the Figure 1 (right) series as a table."""
    return format_table(
        ["Occurrences", "NED-Base F1", "Bootleg F1", "#Mentions"],
        [list(row) for row in series],
        title="Figure 1 (right) — F1 vs times entity seen in training",
    )


# ----------------------------------------------------------------------
# Table 1 — benchmark suites
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BenchmarkRow:
    """One (suite, model) result row of Table 1."""
    suite: str
    model: str
    prf: PRF


def _suite_prf(model, dataset: NedDataset) -> PRF:
    records = predict(model, dataset)
    anchors = [r for r in records if not r.is_weak]
    correct = sum(1 for r in anchors if r.correct)
    extracted = sum(1 for r in anchors if r.num_candidates > 0)
    return prf_from_counts(correct, extracted, len(anchors))


def _prior_prf(dataset: NedDataset) -> PRF:
    records = [r for r in most_popular_predictions(dataset) if not r.is_weak]
    correct = sum(1 for r in records if r.correct)
    extracted = sum(1 for r in records if r.num_candidates > 0)
    return prf_from_counts(correct, extracted, len(records))


def _clone_for_finetune(workspace: Workspace, spec: ModelSpec):
    """Fresh model instance carrying a trained model's weights."""
    trained = workspace.trained_model(spec)
    clone = workspace._build_model(spec)
    clone.load_state_dict(trained.state_dict())
    return clone


def table1_rows(
    workspace: Workspace,
    seed: int = 0,
    benchmark_workspace: Workspace | None = None,
) -> list[BenchmarkRow]:
    """Bootleg vs NED-Base vs prior baseline over the three suites.

    The AIDA-like suite fine-tunes the neural models on its own train
    split (Section 4.2's protocol) before testing. When a
    ``benchmark_workspace`` is given (the 96/2/2 setup of B.1/B.2), the
    paper's benchmark model — co-occurrence KG module, title feature,
    page feature, fixed 80% regularization — is evaluated as well.
    """
    from repro.experiments.artifacts import benchmark_model_spec

    specs = standard_model_specs(workspace.config.num_candidates)
    contenders: list[tuple[str, Workspace, ModelSpec]] = [
        ("ned_base", workspace, specs["ned_base"]),
        ("bootleg", workspace, specs["bootleg"]),
    ]
    if benchmark_workspace is not None:
        contenders.append(
            (
                "bootleg (benchmark model)",
                benchmark_workspace,
                benchmark_model_spec(benchmark_workspace.config.num_candidates),
            )
        )
    suites = build_all_suites(workspace.world, seed=seed)
    rows: list[BenchmarkRow] = []
    for suite in suites:
        finetune = suite.name.startswith("AIDA")
        prior_dataset = NedDataset(
            suite.corpus,
            "test",
            workspace.vocab,
            workspace.world.candidate_map,
            workspace.config.num_candidates,
        )
        rows.append(
            BenchmarkRow(suite.name, "prior (popularity)", _prior_prf(prior_dataset))
        )
        for name, source_ws, spec in contenders:
            test_dataset = NedDataset(
                suite.corpus,
                "test",
                source_ws.vocab,
                source_ws.world.candidate_map,
                source_ws.config.num_candidates,
                kgs=source_ws.kgs,
                page_graph=source_ws.page_graph,
            )
            model = _clone_for_finetune(source_ws, spec)
            if finetune:
                def suite_dataset(split: str) -> NedDataset:
                    return NedDataset(
                        suite.corpus,
                        split,
                        source_ws.vocab,
                        source_ws.world.candidate_map,
                        source_ws.config.num_candidates,
                        kgs=source_ws.kgs,
                        page_graph=source_ws.page_graph,
                    )

                # The paper's AIDA protocol: fine-tune 2 epochs, evaluate
                # every 25 steps, keep the best-validation checkpoint.
                Trainer(
                    model,
                    suite_dataset("train"),
                    TrainConfig(
                        epochs=2,
                        batch_size=16,
                        learning_rate=5e-4,
                        seed=seed,
                        eval_every_steps=25,
                    ),
                    eval_dataset=suite_dataset("val"),
                ).train()
            rows.append(BenchmarkRow(suite.name, name, _suite_prf(model, test_dataset)))
    return rows


def render_table1(rows: list[BenchmarkRow]) -> str:
    """Format Table 1 rows as the paper's table."""
    body = [
        [row.suite, row.model, *row.prf.as_row()]
        for row in rows
    ]
    return format_table(
        ["Benchmark", "Model", "Precision", "Recall", "F1"],
        body,
        title="Table 1 — benchmark suite P/R/F1",
    )


# ----------------------------------------------------------------------
# Tables 6 & 9 — regularization / micro ablations
# ----------------------------------------------------------------------
MICRO_EVAL_SPLITS = ("val", "test")
GRID_SEEDS = (0, 1)


def _seed_variants(spec: ModelSpec, workspace: Workspace, seeds: Sequence[int]):
    """Same architecture, different model/training seeds.

    Seed 0 is the spec itself (so the originally trained checkpoint is
    reused); other seeds perturb both the model and training seeds.
    """
    for seed in seeds:
        if seed == 0:
            yield spec
            continue
        yield ModelSpec(
            f"{spec.name}_s{seed}",
            kind=spec.kind,
            bootleg_config=(
                dataclasses.replace(spec.bootleg_config, seed=seed)
                if spec.bootleg_config is not None
                else None
            ),
            ned_base_config=(
                dataclasses.replace(spec.ned_base_config, seed=seed)
                if spec.ned_base_config is not None
                else None
            ),
            train=dataclasses.replace(workspace.config.train, seed=seed + 1),
        )


def _seed_averaged_buckets(
    workspace: Workspace,
    spec: ModelSpec,
    splits: Sequence[str],
    seeds: Sequence[int],
) -> dict[str, float]:
    runs = [
        f1_by_bucket(_predictions_over(workspace, variant, splits), workspace.counts)
        for variant in _seed_variants(spec, workspace, seeds)
    ]
    return {key: float(np.mean([run[key] for run in runs])) for key in runs[0]}


def table9_rows(
    workspace: Workspace,
    splits: Sequence[str] = MICRO_EVAL_SPLITS,
    seeds: Sequence[int] = GRID_SEEDS,
) -> dict[str, dict[str, float]]:
    """Micro ablation: standard models + the regularization grid.

    Evaluated over pooled held-out splits and averaged over training
    seeds — the paper's per-scheme gaps (a few F1 points on a
    2,810-mention unseen slice) are below one seed's noise at our
    ~70-mention scale.
    """
    rows: dict[str, dict[str, float]] = {}
    standard = standard_model_specs(workspace.config.num_candidates)
    for name in ("ned_base", "ent_only", "type_only", "kg_only"):
        rows[name] = f1_by_bucket(
            _predictions_over(workspace, standard[name], splits), workspace.counts
        )
    for name, spec in regularization_model_specs(
        workspace.config.num_candidates
    ).items():
        rows[f"bootleg_{name}"] = _seed_averaged_buckets(
            workspace, spec, splits, seeds
        )
    return rows


def table6_rows(
    workspace: Workspace, splits: Sequence[str] = MICRO_EVAL_SPLITS
) -> dict[str, float]:
    """Unseen-entity F1 per p(e) scheme (the Table 6 row)."""
    grid = table9_rows(workspace, splits)
    return {
        "0%": grid["bootleg_fixed_0"]["unseen"],
        "20%": grid["bootleg_fixed_20"]["unseen"],
        "50%": grid["bootleg_fixed_50"]["unseen"],
        "80%": grid["bootleg_fixed_80"]["unseen"],
        "Pop": grid["bootleg_pop_pow"]["unseen"],
        "InvPop": grid["bootleg_inv_pop_pow"]["unseen"],
    }


def render_table9(rows: dict[str, dict[str, float]]) -> str:
    """Format the Table 9 ablation grid."""
    body = [
        [name, *[values.get(col, 0.0) for col in BUCKET_COLUMNS]]
        for name, values in rows.items()
    ]
    return format_table(
        ["Model", "All", "Torso", "Tail", "Unseen"],
        body,
        title="Table 9 — micro ablation (signals + regularization grid)",
    )


def render_table6(rows: dict[str, float]) -> str:
    """Format the Table 6 regularization sweep."""
    return format_table(
        ["p(e)", *rows.keys()],
        [["Unseen F1", *rows.values()]],
        title="Table 6 — unseen-entity F1 vs entity regularization scheme",
    )


# ----------------------------------------------------------------------
# Table 11 — weak labeling ablation
# ----------------------------------------------------------------------
def table11_rows(
    with_wl: Workspace, without_wl: Workspace, split: str = "val"
) -> dict[str, dict[str, float]]:
    """Bootleg (InvPopPow) trained with vs without weak labels.

    Buckets are defined by *anchor-only* counts (pre-weak-labeling), as
    in the paper, so both rows slice identically. Each row averages two
    training seeds: the effect the paper measures (+2.6 F1 unseen) is
    smaller than our single-run noise floor at this scale.
    """
    anchor_counts = EntityCounts.from_corpus(
        without_wl.corpus, without_wl.world.num_entities, include_weak=False
    )
    base_config = standard_model_specs(with_wl.config.num_candidates)[
        "bootleg"
    ].bootleg_config
    rows: dict[str, dict[str, float]] = {}
    for label, workspace in (
        ("bootleg_with_wl", with_wl),
        ("bootleg_no_wl", without_wl),
    ):
        per_seed = []
        for seed in (0, 1):
            spec = ModelSpec(
                f"bootleg_wl_s{seed}",
                bootleg_config=dataclasses.replace(base_config, seed=seed),
                train=dataclasses.replace(workspace.config.train, seed=seed + 1),
            )
            per_seed.append(
                f1_by_bucket(workspace.predictions(spec, split), anchor_counts)
            )
        rows[label] = {
            key: float(np.mean([run[key] for run in per_seed]))
            for key in per_seed[0]
        }
    return rows


def render_table11(rows: dict[str, dict[str, float]], growth_factor: float) -> str:
    """Format Table 11 plus the mention-growth factor."""
    body = [
        [name, *[values.get(col, 0.0) for col in BUCKET_COLUMNS]]
        for name, values in rows.items()
    ]
    table = format_table(
        ["Model", "All", "Torso", "Tail", "Unseen"],
        body,
        title="Table 11 — weak labeling ablation (anchor-count buckets)",
    )
    return table + f"\nmention growth factor from weak labeling: {growth_factor:.2f}x"


# ----------------------------------------------------------------------
# Table 7 — reasoning-pattern slices
# ----------------------------------------------------------------------
def table7_rows(workspace: Workspace, splits: Sequence[str] = ("val", "test")):
    """model -> slice -> (overall F1, tail F1); plus slice coverage."""
    keywords = mine_affordance_keywords(workspace.corpus, workspace.world.kb)
    slicer = PatternSlicer(workspace.world.kb, workspace.world.kg, keywords)
    sentences = [s for split in splits for s in workspace.corpus.sentences(split)]
    membership = slicer.build_membership(sentences)
    total_mentions = sum(workspace.corpus.num_mentions(split) for split in splits)
    coverage = slice_coverage(membership, total_mentions)
    specs = standard_model_specs(workspace.config.num_candidates)
    tail_ids = set(
        int(i)
        for bucket in ("tail", "unseen")
        for i in workspace.counts.bucket_ids(bucket)
    )
    results: dict[str, dict[str, tuple[float, float]]] = {}
    for name in ("ned_base", "bootleg", "ent_only", "type_only", "kg_only"):
        predictions = _predictions_over(workspace, specs[name], splits)
        sliced = slice_predictions(predictions, membership)
        results[name] = {}
        for slice_name, members in sliced.items():
            overall = micro_f1(members)
            tail = micro_f1([p for p in members if p.gold_entity_id in tail_ids])
            results[name][slice_name] = (overall, tail)
    return results, coverage


def render_table7(results, coverage) -> str:
    """Format Table 7 (Overall/Tail per pattern slice)."""
    slices = ("entity", "consistency", "kg_relation", "affordance")
    body = []
    for model, per_slice in results.items():
        row = [model]
        for name in slices:
            overall, tail = per_slice.get(name, (0.0, 0.0))
            row.append(f"{overall:.0f}/{tail:.0f}")
        body.append(row)
    body.append(
        ["coverage", *[f"{100 * coverage.get(name, 0):.0f}%" for name in slices]]
    )
    return format_table(
        ["Model", "Entity", "Consistency", "KG Relation", "Affordance"],
        body,
        title="Table 7 — Overall/Tail F1 per reasoning-pattern slice",
    )


# ----------------------------------------------------------------------
# Table 8 — error buckets
# ----------------------------------------------------------------------
def table8_report(workspace: Workspace, splits: Sequence[str] = ("val", "test")):
    """Classify Bootleg's errors and the exact-match disagreements (Table 8)."""
    specs = standard_model_specs(workspace.config.num_candidates)
    predictions = _predictions_over(workspace, specs["bootleg"], splits)
    baseline = _predictions_over(workspace, specs["ned_base"], splits)
    sentences = {
        s.sentence_id: s
        for split in splits
        for s in workspace.corpus.sentences(split)
    }
    report = classify_errors(
        predictions, workspace.world.kb, workspace.world.kg, sentences
    )
    exact = exact_match_disagreements(predictions, baseline, workspace.world.kb)
    return report, exact


def render_table8(report, exact) -> str:
    """Format the Table 8 error buckets."""
    body = [
        [bucket, len(report.buckets[bucket]), 100 * report.fraction(bucket)]
        for bucket in ERROR_BUCKETS
    ]
    table = format_table(
        ["Error bucket", "# errors", "% of errors"],
        body,
        title=f"Table 8 — Bootleg error buckets (of {report.total_errors} errors)",
    )
    return table + (
        f"\nbaseline-correct / bootleg-wrong mentions: {exact['num_lost']}, "
        f"exact-title fraction: {100 * exact['exact_match_fraction']:.0f}%"
    )


# ----------------------------------------------------------------------
# Figure 3 — embedding compression
# ----------------------------------------------------------------------
def figure3_series(
    workspace: Workspace,
    keep_percents: Sequence[float] = (100.0, 50.0, 20.0, 10.0, 5.0, 1.0, 0.1),
    splits: Sequence[str] = ("val", "test"),
):
    """(keep %, error by bucket dict, embedding MB) rows."""
    specs = standard_model_specs(workspace.config.num_candidates)
    model = workspace.trained_model(specs["bootleg"])
    datasets = [workspace.dataset(split) for split in splits]
    rows = []
    for keep in keep_percents:
        with compressed_embeddings(model, workspace.counts.counts, keep) as stats:
            predictions = []
            for dataset in datasets:
                predictions.extend(predict(model, dataset))
        buckets = f1_by_bucket(predictions, workspace.counts)
        errors = {k: 100.0 - v for k, v in buckets.items()}
        rows.append((keep, errors, stats.embedding_mb_compressed))
    return rows


def render_figure3(rows) -> str:
    """Format the Figure 3 compression sweep."""
    body = [
        [
            f"{keep:g}%",
            f"{100 - keep:g}",
            errors["all"],
            errors["torso"],
            errors["tail"],
            errors["unseen"],
            f"{mb:.2f}",
        ]
        for keep, errors, mb in rows
    ]
    return format_table(
        ["Kept", "Ratio", "All err", "Torso err", "Tail err", "Unseen err", "Emb MB"],
        body,
        title="Figure 3 — error vs entity-embedding compression",
    )


# ----------------------------------------------------------------------
# Figure 4 — error vs rare-entity proportion of types / relations
# ----------------------------------------------------------------------
def figure4_series(workspace: Workspace, splits: Sequence[str] = ("val", "test")):
    """Figure 4: error-rate rows per rare-proportion bin, per model."""
    from repro.eval.slices import error_rate_by_rare_proportion

    kb = workspace.world.kb
    type_groups = {
        t: kb.entities_of_type(t) for t in range(kb.num_types)
    }
    relation_groups = {
        r: kb.entities_of_relation(r) for r in range(kb.num_relations)
    }
    specs = standard_model_specs(workspace.config.num_candidates)
    series = {}
    for name in ("ned_base", "bootleg", "ent_only"):
        predictions = _predictions_over(workspace, specs[name], splits)
        series[name] = {
            "type": error_rate_by_rare_proportion(
                predictions, workspace.counts, type_groups
            ),
            "relation": error_rate_by_rare_proportion(
                predictions, workspace.counts, relation_groups
            ),
        }
    return series


def render_figure4(series) -> str:
    """Format the Figure 4 series."""
    lines = ["Figure 4 — error rate vs rare-entity proportion of a group"]
    for group_kind in ("relation", "type"):
        lines.append(f"[by {group_kind}]")
        for model, data in series.items():
            rows = data[group_kind]
            formatted = ", ".join(
                f"p={center:.2f}: {100 * error:.0f}% (n={n})"
                for center, error, n in rows
            )
            lines.append(f"  {model}: {formatted}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 10 — model sizes
# ----------------------------------------------------------------------
def table10_rows(workspace: Workspace) -> dict[str, dict[str, float]]:
    """Embedding vs network parameter sizes (MB, float32) per model."""
    specs = standard_model_specs(workspace.config.num_candidates)
    rows: dict[str, dict[str, float]] = {}
    for name in ("ned_base", "bootleg", "ent_only", "type_only", "kg_only"):
        model = workspace.trained_model(specs[name])
        embedding_mb = 0.0
        if name == "ned_base":
            embedding_mb = parameter_size_mb(model.entity_table)
        else:
            embedder = model.embedder
            for table in (embedder.entity_table, embedder.type_table,
                          embedder.relation_table):
                if table is not None:
                    embedding_mb += parameter_size_mb(table)
        total_mb = parameter_size_mb(model)
        rows[name] = {
            "embedding_mb": embedding_mb,
            "network_mb": total_mb - embedding_mb,
            "total_mb": total_mb,
        }
    return rows


def render_table10(rows: dict[str, dict[str, float]]) -> str:
    """Format the Table 10 size accounting."""
    body = [
        [name, values["embedding_mb"], values["network_mb"], values["total_mb"]]
        for name, values in rows.items()
    ]
    return format_table(
        ["Model", "Embedding MB", "Network MB", "Total MB"],
        body,
        title="Table 10 — model sizes (float32 MB)",
        float_fmt=".3f",
    )


# ----------------------------------------------------------------------
# Table 3 / 12 / 13 — TACRED
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TacredResults:
    """All TACRED-experiment outputs (Tables 3/4/12/13)."""
    baseline_f1: float
    bootleg_f1: float
    table12: dict[str, tuple[int, float]]  # signal -> (num examples, gap ratio)
    table13: dict[str, tuple[int, float]]  # signal -> (num examples, error ratio)
    example_wins: list[str]


def run_tacred_experiment(
    workspace: Workspace,
    tacred_config: TacredConfig | None = None,
    epochs: int = 30,
    seed: int = 0,
) -> TacredResults:
    """Train the SpanBERT stand-in vs the Bootleg-feature model."""
    tacred_config = tacred_config or TacredConfig(seed=seed)
    examples = generate_tacred(workspace.world, tacred_config)
    num_labels = workspace.world.kb.num_relations + 1
    specs = standard_model_specs(workspace.config.num_candidates)
    bootleg = workspace.trained_model(specs["bootleg"])
    features, signals = extract_bootleg_features(
        bootleg,
        examples,
        workspace.vocab,
        workspace.world.candidate_map,
        workspace.world,
        num_candidates=workspace.config.num_candidates,
    )
    train_examples = split_examples(examples, "train")
    test_examples = split_examples(examples, "test")
    rng = np.random.default_rng(seed)

    feature_dim = next(iter(features.values())).shape[-1]

    def train_and_eval(use_features: bool) -> tuple[float, np.ndarray]:
        dataset = TacredDataset(
            train_examples,
            workspace.vocab,
            bootleg_features=features if use_features else None,
        )
        model = RelationModel(
            workspace.vocab,
            num_labels,
            hidden_dim=64,
            bootleg_dim=feature_dim if use_features else 0,
            rng=np.random.default_rng(np.random.SeedSequence([seed, 42])),
        )
        Trainer(
            model, dataset,
            TrainConfig(epochs=epochs, batch_size=32, learning_rate=2e-3, seed=seed),
        ).train()
        test_dataset = TacredDataset(
            test_examples,
            workspace.vocab,
            bootleg_features=features if use_features else None,
        )
        predicted = []
        for batch in test_dataset.batches(64):
            output = model(batch)
            predicted.extend(model.predictions(batch, output).tolist())
        gold = [e.label for e in test_examples]
        return tacred_micro_f1(predicted, gold), np.array(predicted)

    baseline_f1, baseline_pred = train_and_eval(False)
    bootleg_f1, bootleg_pred = train_and_eval(True)
    gold = np.array([e.label for e in test_examples])
    baseline_errors = baseline_pred != gold
    bootleg_errors = bootleg_pred != gold

    # Table 12: error-rate gap above vs below the median signal density.
    def gap_ratio(proportions: np.ndarray) -> tuple[int, float]:
        has_signal = proportions > 0
        if has_signal.sum() < 4:
            return int(has_signal.sum()), 0.0
        median = np.median(proportions[has_signal])
        above = has_signal & (proportions > median)
        below = has_signal & (proportions <= median)

        def gap(mask: np.ndarray) -> float:
            if mask.sum() == 0:
                return 0.0
            return float(baseline_errors[mask].mean() - bootleg_errors[mask].mean())

        below_gap = gap(below)
        if abs(below_gap) < 1e-9:
            return int(has_signal.sum()), float("inf") if gap(above) > 0 else 0.0
        return int(has_signal.sum()), gap(above) / below_gap

    entity_prop = np.array(
        [signals[e.example_id].entity_proportion for e in test_examples]
    )
    relation_count = np.array(
        [signals[e.example_id].relation_count for e in test_examples], dtype=float
    )
    type_count = np.array(
        [signals[e.example_id].type_count for e in test_examples], dtype=float
    )
    type_prop = np.array(
        [signals[e.example_id].type_proportion for e in test_examples]
    )
    table12 = {
        "entity": gap_ratio(entity_prop),
        "relation": gap_ratio(relation_count),
        "type": gap_ratio(type_count),
    }

    # Table 13: baseline/bootleg error-rate ratio on signal-present slices.
    def error_ratio(mask: np.ndarray) -> tuple[int, float]:
        if mask.sum() == 0:
            return 0, 0.0
        bootleg_rate = float(bootleg_errors[mask].mean())
        baseline_rate = float(baseline_errors[mask].mean())
        if bootleg_rate == 0:
            return int(mask.sum()), float("inf") if baseline_rate > 0 else 1.0
        return int(mask.sum()), baseline_rate / bootleg_rate

    pair_connected = np.array(
        [signals[e.example_id].pair_connected for e in test_examples]
    )
    table13 = {
        "entity": error_ratio(entity_prop > 0),
        "relation": error_ratio(pair_connected),
        "type": error_ratio(type_prop > 0),
    }

    # Table 4-style qualitative wins: implicit examples the features fixed.
    wins = []
    for i, example in enumerate(test_examples):
        if (
            not example.explicit
            and example.label != NO_RELATION
            and baseline_errors[i]
            and not bootleg_errors[i]
        ):
            relation = workspace.world.kb.relation_record(example.label - 1)
            wins.append(
                f"tokens={' '.join(example.tokens[:10])}... "
                f"gold={relation.name} (implicit; fixed by Bootleg features)"
            )
        if len(wins) >= 3:
            break
    return TacredResults(
        baseline_f1=baseline_f1,
        bootleg_f1=bootleg_f1,
        table12=table12,
        table13=table13,
        example_wins=wins,
    )


def render_tacred(results: TacredResults) -> str:
    """Format Tables 3, 12, 13 and the Table 4 examples."""
    table3 = format_table(
        ["Model", "Test F1"],
        [
            ["Bootleg-feature model", results.bootleg_f1],
            ["SpanBERT stand-in", results.baseline_f1],
        ],
        title="Table 3 — TACRED-style relation extraction",
    )
    table12 = format_table(
        ["Signal", "# examples", "Gap above/below median"],
        [[k, v[0], f"{v[1]:.2f}"] for k, v in results.table12.items()],
        title="Table 12 — error-gap ratio by Bootleg signal density",
    )
    table13 = format_table(
        ["Signal", "# examples", "Baseline/Bootleg error ratio"],
        [[k, v[0], f"{v[1]:.2f}"] for k, v in results.table13.items()],
        title="Table 13 — error ratio on signal-present slices",
    )
    wins = "\n".join(["Table 4 — qualitative wins:"] + (results.example_wins or ["(none)"]))
    return "\n\n".join([table3, table12, table13, wins])
