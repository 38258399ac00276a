"""Command-line interface.

Subcommands cover the full lifecycle a downstream user needs:

- ``repro generate-world``  — create and save a synthetic world
- ``repro generate-corpus`` — create and save a corpus for a world
- ``repro train``           — train Bootleg (or an ablation) and save it
- ``repro evaluate``        — bucketed F1 of a saved model on a split
- ``repro annotate``        — disambiguate free text with a saved model
- ``repro lint``            — invariant linter + model-graph verifier
- ``repro explain``         — query per-mention decision provenance
- ``repro report``          — inspect / diff slice-aware run reports

Models are saved as self-contained checkpoints: the npz carries the
model config, the vocabulary, and the entity counts, so ``evaluate`` and
``annotate`` need only the world/corpus files and the checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

import repro.obs as obs
from repro.obs import provenance
from repro.cascade import CascadePolicy
from repro.core.annotator import BootlegAnnotator
from repro.core.model import MODEL_PRESETS, BootlegConfig, BootlegModel
from repro.core.trainer import TrainConfig, Trainer
from repro.corpus.dataset import NedDataset, build_vocabulary
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.io import load_corpus, save_corpus
from repro.corpus.stats import EntityCounts
from repro.corpus.vocab import SPECIAL_TOKENS, Vocabulary
from repro.errors import ReproError, SerializationError, StoreError
from repro.eval.patterns import PatternSlicer, mine_affordance_keywords
from repro.eval.slices import f1_by_bucket, mentions_by_bucket, slice_by_bucket
from repro.obs.report import RunReport, diff_reports, regressions
from repro.kb.io import load_world, save_world
from repro.kb.synthetic import WorldConfig, generate_world
from repro.nn.serialize import load_module, save_module
from repro.utils.logging import enable_console_logging, parse_level
from repro.utils.tables import format_table
from repro.weaklabel.pipeline import weak_label_corpus

def _vocab_from_tokens(tokens: list[str]) -> Vocabulary:
    vocab = Vocabulary.build([tokens])
    return vocab


def _vocab_content_tokens(vocab: Vocabulary) -> list[str]:
    return [vocab.decode_id(i) for i in range(len(SPECIAL_TOKENS), len(vocab))]


def _positive(kind: type, below: float | None = None):
    """argparse ``type=`` for an int or float flag that must be > 0 (and
    < ``below`` when given), so a bad value is a usage error rather than
    a traceback or a silently wrong result."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (value > 0 and (below is None or value < below)):
            bound = "> 0" if below is None else f"in (0, {below:g})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


# ----------------------------------------------------------------------
# Telemetry plumbing (shared flags on every subcommand)
# ----------------------------------------------------------------------
def _telemetry_parser() -> argparse.ArgumentParser:
    """Parent parser carrying the observability/logging flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics JSON snapshot (counters/gauges/histograms)",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event span trace (chrome://tracing)",
    )
    group.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable console logging at this level",
    )
    group.add_argument(
        "--json-logs", action="store_true",
        help="emit structured JSON log lines instead of the text format",
    )
    group.add_argument(
        "--provenance-out", metavar="PATH", default=None,
        help="capture a per-mention decision record for every prediction "
             "and write them as JSONL (query with `repro explain`)",
    )
    return parent


def _cascade_parser() -> argparse.ArgumentParser:
    """Parent parser carrying the tiered-cascade flags."""
    defaults = CascadePolicy()
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("cascade")
    group.add_argument(
        "--cascade", action="store_true",
        help="answer high-confidence mentions from the alias prior and "
             "escalate only the rest to the model (docs/CASCADE.md)",
    )
    group.add_argument(
        "--cascade-margin", type=float, default=None, metavar="M",
        help="minimum top-vs-runner-up normalized prior gap for a tier-0 "
             f"answer (default {defaults.margin})",
    )
    group.add_argument(
        "--cascade-prior-mass", type=float, default=None, metavar="P",
        help="minimum normalized prior mass on the top candidate for a "
             f"tier-0 answer (default {defaults.prior_mass})",
    )
    return parent


def _cascade_policy(args: argparse.Namespace) -> CascadePolicy | None:
    """The CascadePolicy requested on the command line, or None."""
    if not getattr(args, "cascade", False):
        return None
    given = {"margin": args.cascade_margin, "prior_mass": args.cascade_prior_mass}
    policy = CascadePolicy(
        **{field: value for field, value in given.items() if value is not None}
    )
    policy.validate()
    return policy


# --keep-percent's default, the paper's k.
_KEEP_PERCENT = 10.0

# Flags that take effect under one backend only, and the flag that turns
# it on; given without it they would be silently ignored.
_BACKEND_FLAGS = {
    "keep_percent": "--store tiered",
    "store_dir": "--store mmap",
    "store_budget_mb": "--store mmap",
    "cascade_margin": "--cascade",
    "cascade_prior_mass": "--cascade",
}


def _check_backend_flags(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2, naming the flag it needs, on a backend flag given alone."""
    backends = {f"--store {getattr(args, 'store', None)}"}
    if getattr(args, "cascade", False):
        backends.add("--cascade")
    for dest, needs in _BACKEND_FLAGS.items():
        if getattr(args, dest, None) is not None and needs not in backends:
            parser.error(f"--{dest.replace('_', '-')} requires {needs}")


def _store_parser() -> argparse.ArgumentParser:
    """Parent parser carrying the entity payload store flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("entity store")
    group.add_argument(
        "--store", choices=("dense", "mmap", "tiered"), default="dense",
        help="entity payload backend: dense in-memory block (default), "
             "sharded memory-mapped files, or tiered top-k%% compression "
             "(see docs/ENTITY_STORE.md)",
    )
    group.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="directory holding (or receiving) the sharded mmap store; "
             "required with --store mmap, written on first use",
    )
    group.add_argument(
        "--keep-percent", type=float, default=None, metavar="K",
        help="with --store tiered: keep full-precision payload rows for "
             f"the top K%% entities by popularity (default {_KEEP_PERCENT:g})",
    )
    group.add_argument(
        "--store-budget-mb", type=_positive(float), default=None,
        metavar="MB",
        help="with --store mmap: LRU-detach shards to keep attached "
             "payload under this many MiB (default: unbounded)",
    )
    return parent


def _configure_store(model, args: argparse.Namespace, entity_counts) -> None:
    """Attach the requested payload store backend to the model.

    ``dense`` is a no-op (the embedder builds its dense cache lazily).
    ``mmap`` writes the sharded store to ``--store-dir`` on first use
    and re-opens it afterwards; ``tiered`` builds the top-k% store from
    the checkpoint's training popularity counts.
    """
    kind = getattr(args, "store", "dense")
    if kind == "dense":
        return
    if not getattr(model, "payload_cache_enabled", False) or getattr(
        model.config, "use_title_feature", False
    ):
        raise StoreError(
            f"--store {kind} requires the static payload fast path "
            "(payload cache enabled, no title feature)"
        )
    from pathlib import Path

    from repro.store import ShardedMmapStore, TieredPayloadStore, write_sharded_store

    embedder = model.embedder
    planes = embedder.payload_planes()
    if kind == "mmap":
        if not args.store_dir:
            raise StoreError("--store mmap requires --store-dir")
        store_dir = Path(args.store_dir)
        if not (store_dir / "manifest.json").exists():
            write_sharded_store(store_dir, planes)
        budget = (
            int(args.store_budget_mb * 2**20)
            if args.store_budget_mb is not None
            else None
        )
        store = ShardedMmapStore.open(store_dir, memory_budget_bytes=budget)
    else:  # tiered
        if entity_counts is None:
            raise StoreError(
                "--store tiered needs entity popularity counts "
                "(train a checkpoint that records them)"
            )
        keep_percent = (
            _KEEP_PERCENT if args.keep_percent is None else args.keep_percent
        )
        store = TieredPayloadStore.build(
            planes, np.asarray(entity_counts), keep_percent
        )
    embedder.attach_payload_store(store)
    print(
        f"entity store: {kind} ({store.resident_bytes() / 2**20:.1f} MiB resident)",
        file=sys.stderr,
    )


def _records_telemetry(args: argparse.Namespace) -> bool:
    """Whether the command's flags turn ``repro.obs`` recording on.

    Run reports bundle the metrics snapshot, so they record even
    without ``--metrics-out``. One predicate for setup and export, so
    whatever turns recording on also turns it off again.
    """
    return bool(
        args.metrics_out or args.trace_out
        or getattr(args, "report_out", None)
        or getattr(args, "report_html", None)
        or args.provenance_out
    )


def _setup_telemetry(args: argparse.Namespace) -> None:
    if args.log_level is not None or args.json_logs:
        level = parse_level(args.log_level or "info")
        enable_console_logging(level, json_logs=args.json_logs)
    if _records_telemetry(args):
        obs.reset()
        obs.enable()
    if args.provenance_out:
        # Every record stays in memory; _export_telemetry writes the
        # file once, at the end of the command.
        provenance.reset()
        provenance.enable()


def _export_telemetry(args: argparse.Namespace) -> None:
    if args.metrics_out:
        obs.metrics.export_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        obs.tracer.export_chrome(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if getattr(args, "provenance_out", None):
        count = provenance.export_jsonl(args.provenance_out)
        print(
            f"{count} decision record(s) written to {args.provenance_out}",
            file=sys.stderr,
        )
        provenance.reset()
    if _records_telemetry(args):
        obs.disable()


def _maybe_profile(model, args: argparse.Namespace) -> None:
    """Turn on per-module forward spans when a trace was requested."""
    if getattr(args, "trace_out", None):
        model.enable_forward_profiling()


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def cmd_generate_world(args: argparse.Namespace) -> int:
    """``repro generate-world``: create and save a synthetic world."""
    config = WorldConfig(num_entities=args.entities, seed=args.seed)
    world = generate_world(config)
    save_world(world, args.out)
    print(
        f"world saved to {args.out}: {world.kb.num_entities} entities, "
        f"{world.kb.num_types} types, {world.kg.num_triples} triples"
    )
    return 0


def cmd_generate_corpus(args: argparse.Namespace) -> int:
    """``repro generate-corpus``: create and save a corpus."""
    world = load_world(args.world)
    config = CorpusConfig(num_pages=args.pages, seed=args.seed)
    corpus = generate_corpus(world, config)
    if args.weak_label:
        corpus, report = weak_label_corpus(corpus, world.kb)
        print(f"weak labeling: +{report.total_weak_labels} mentions "
              f"({report.growth_factor:.2f}x)")
    save_corpus(corpus, args.out)
    print(
        f"corpus saved to {args.out}: {len(corpus.pages)} pages, "
        f"{len(corpus.sentences())} sentences, "
        f"{corpus.num_mentions()} mentions"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: train a model and save a self-contained checkpoint."""
    world = load_world(args.world)
    corpus = load_corpus(args.corpus)
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    dataset = NedDataset(
        corpus, "train", vocab, world.candidate_map, args.candidates,
        kgs=[world.kg],
    )
    overrides = dict(MODEL_PRESETS[args.preset])
    config = BootlegConfig(num_candidates=args.candidates, **overrides)
    model = BootlegModel(config, world.kb, vocab, entity_counts=counts.counts)
    _maybe_profile(model, args)
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.seed,
        ),
    )
    started = time.perf_counter()
    history = trainer.train()
    wall_seconds = time.perf_counter() - started
    for stats in history:
        print(f"epoch {stats.epoch}: loss {stats.mean_loss:.4f} "
              f"({stats.seconds:.1f}s)")
    if args.report_out:
        report = RunReport.build(
            name=f"train:{args.preset}",
            config={
                "preset": args.preset,
                "model_config": dataclasses.asdict(config),
                "epochs": args.epochs,
                "batch_size": args.batch_size,
                "learning_rate": args.learning_rate,
            },
            seed=args.seed,
            wall_seconds=wall_seconds,
            train=trainer.report().to_dict(),
        )
        report.save(args.report_out)
        print(f"run report written to {args.report_out}", file=sys.stderr)
    save_module(
        model,
        args.out,
        metadata={
            "model_config": dataclasses.asdict(config),
            "vocab_tokens": _vocab_content_tokens(vocab),
            "entity_counts": counts.counts.tolist(),
        },
    )
    print(f"model saved to {args.out}")
    return 0


def _load_model(world, checkpoint: str):
    """Rebuild a model + vocabulary from a self-contained checkpoint.

    Returns ``(model, vocab, config, entity_counts)`` — the training
    popularity counts recorded in the checkpoint, which the tiered
    payload store needs for its head/tail split.
    """
    import json
    from pathlib import Path

    path = Path(checkpoint)
    try:
        archive = np.load(path)
    except OSError as error:
        raise SerializationError(f"cannot read checkpoint {path}: {error}") from error
    except ValueError:  # numpy refuses pickled or text data
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):  # also a bare .npy array
        raise SerializationError(f"not an .npz checkpoint: {path}")
    with archive:
        raw_metadata = archive.get("__metadata__")
    if raw_metadata is None:
        raise SerializationError(
            f"checkpoint has no metadata (not saved by `repro train`): {path}"
        )
    metadata = json.loads(raw_metadata.tobytes().decode("utf-8"))
    vocab = _vocab_from_tokens(metadata["vocab_tokens"])
    config = BootlegConfig(**metadata["model_config"])
    entity_counts = np.asarray(metadata["entity_counts"])
    model = BootlegModel(
        config, world.kb, vocab, entity_counts=entity_counts,
    )
    load_module(model, checkpoint)
    model.eval()
    return model, vocab, config, entity_counts


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: bucketed F1 of a saved model on a split."""
    world = load_world(args.world)
    corpus = load_corpus(args.corpus)
    model, vocab, config, train_counts = _load_model(world, args.model)
    _maybe_profile(model, args)
    _configure_store(model, args, train_counts)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    policy = _cascade_policy(args)
    annotator = BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=config.num_candidates,
        batch_size=args.batch_size, cascade=policy,
    )
    sentences = corpus.sentences(args.split)
    started = time.perf_counter()
    if args.workers > 1:
        from repro.parallel import AnnotatorPool

        # Each task's reply carries its decision records, so every one
        # is in by the time the call returns, before slices are attached
        # below.
        with AnnotatorPool.from_annotator(annotator, args.workers) as pool:
            records = pool.predict_sentences(sentences)
    else:
        records = annotator.predict_sentences(sentences)
    wall_seconds = time.perf_counter() - started
    if policy is not None:
        answered = sum(1 for r in records if getattr(r, "tier", "model") != "model")
        print(
            f"cascade: {answered}/{len(records)} mentions answered at "
            f"tier 0, {len(records) - answered} escalated",
            file=sys.stderr,
        )
    capturing = obs.enabled and provenance.active
    reporting = args.report_out or args.report_html
    if capturing or reporting:
        # Pattern-slice membership is mined from structure (Section 5),
        # so audits and reports carry both popularity and reasoning
        # slices.
        patterns = PatternSlicer(
            world.kb, world.kg, mine_affordance_keywords(corpus, world.kb)
        ).build_membership(sentences)
    if capturing:
        # Stamp each captured decision record with the popularity bucket
        # and pattern slices its mention belongs to, so `repro explain
        # --slice tail` and the report drill-down can filter by slice.
        membership = {
            bucket: {(p.sentence_id, p.mention_index) for p in members}
            for bucket, members in slice_by_bucket(records, counts).items()
        }
        for name, keys in patterns.items():
            membership[name] = set(keys)
        provenance.attach_slices(membership)
    buckets = f1_by_bucket(records, counts)
    sizes = mentions_by_bucket(records, counts)
    rows = [
        ["F1", buckets["all"], buckets["torso"], buckets["tail"], buckets["unseen"]],
        ["# mentions", sizes["all"], sizes["torso"], sizes["tail"], sizes["unseen"]],
    ]
    print(
        format_table(
            ["", "All", "Torso", "Tail", "Unseen"],
            rows,
            title=f"{args.split} split",
        )
    )
    if reporting:
        report = RunReport.build(
            name=f"evaluate:{args.split}",
            records=records,
            counts=counts,
            membership=patterns,
            config={
                "model": args.model,
                "split": args.split,
                "workers": args.workers,
                "model_config": dataclasses.asdict(config),
                "cascade": (
                    dataclasses.asdict(policy) if policy is not None else None
                ),
            },
            wall_seconds=wall_seconds,
        )
        if args.report_out:
            report.save(args.report_out)
            print(f"run report written to {args.report_out}", file=sys.stderr)
        if args.report_html:
            report.to_html(args.report_html)
            print(
                f"report dashboard written to {args.report_html}",
                file=sys.stderr,
            )
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    """``repro annotate``: disambiguate mentions in free text."""
    world = load_world(args.world)
    model, vocab, config, train_counts = _load_model(world, args.model)
    _maybe_profile(model, args)
    if model.payload_cache_enabled and not config.use_title_feature:
        # Serving warm-up: build the static entity-payload cache before
        # the first request so its cost never lands on request latency.
        model.embedder.build_static_cache()
    _configure_store(model, args, train_counts)
    annotator = BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=config.num_candidates,
        cascade=_cascade_policy(args),
    )
    annotations = annotator.annotate(args.text)
    if not annotations:
        print("no known mentions found")
        return 0
    for annotation in annotations:
        candidates = ", ".join(
            f"{title} ({score:.2f})" for title, score in annotation.candidates[:4]
        )
        tier = f"  [{annotation.tier}]" if getattr(args, "cascade", False) else ""
        print(
            f"[{annotation.start}:{annotation.end}] {annotation.surface!r} "
            f"-> {annotation.entity_title}  |  {candidates}{tier}"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: static invariant linter + runtime model verifier.

    Exit code 0 when no error-severity findings remain, 1 otherwise.
    ``--warn-only`` downgrades the findings of every pass to warnings,
    so it always exits 0. See docs/ANALYSIS.md for the rule catalogue
    and the suppression syntax.
    """
    from pathlib import Path

    from repro.analysis import (
        PROJECT_RULES,
        RULES,
        SEVERITY_ERROR,
        SEVERITY_WARNING,
        analyze_project,
        findings_to_json,
        has_errors,
        lint_paths,
        verify_registered_models,
    )
    from repro.analysis.rules import DERIVED_RULE_IDS

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id} {rule.name}: {rule.summary}")
        for rule_id, summary in sorted(DERIVED_RULE_IDS.items()):
            print(f"{rule_id} {summary}")
        for rule_id, name, summary in PROJECT_RULES:
            print(f"{rule_id} {name}: {summary}")
        return 0
    findings = lint_paths(args.paths, changed_only=args.changed_only)
    if args.project:
        # The whole-program pass needs a package root, so it runs over
        # each *directory* argument (and always over the full tree —
        # --changed-only cannot scope a whole-program analysis).
        reference_roots = [
            p for p in ("tests", "benchmarks", "examples") if Path(p).is_dir()
        ]
        for path in args.paths:
            if Path(path).is_dir():
                findings += analyze_project(path, reference_roots=reference_roots)
    if args.models:
        findings += verify_registered_models()
    if args.warn_only:
        findings = [
            dataclasses.replace(f, severity=SEVERITY_WARNING) for f in findings
        ]
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            errors = sum(f.severity == SEVERITY_ERROR for f in findings)
            print(
                f"{errors} error(s), {len(findings) - errors} warning(s)",
                file=sys.stderr,
            )
    return 1 if has_errors(findings) else 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: inspect, render, and diff run reports.

    ``diff OLD NEW --fail-on-regression`` is the CI gate: exit 0 when no
    slice regressed significantly (paired bootstrap over the shared
    mentions), nonzero otherwise.
    """
    if args.report_command == "show":
        report = RunReport.load(args.report)
        print(f"run:    {report.name}")
        print(f"git:    {report.git_sha or '-'}")
        print(f"seed:   {'-' if report.seed is None else report.seed}")
        print(f"wall:   {report.wall_seconds:.1f}s")
        if report.slices:
            # Reports from cascade runs carry per-tier record counts;
            # older reports have empty tier maps and skip the column.
            with_tiers = any(s.tiers for s in report.ordered_slices())
            rows = []
            for s in report.ordered_slices():
                row = [s.name, s.f1, f"[{s.low:.1f}, {s.high:.1f}]", s.num_mentions]
                if with_tiers:
                    row.append(
                        " ".join(
                            f"{tier}={count}"
                            for tier, count in sorted(s.tiers.items())
                        )
                        or "-"
                    )
                rows.append(row)
            headers = ["slice", "F1", "95% CI", "n"]
            if with_tiers:
                headers.append("tiers")
            print(format_table(headers, rows))
        return 0
    if args.report_command == "html":
        report = RunReport.load(args.report)
        report.to_html(args.out)
        print(f"report dashboard written to {args.out}", file=sys.stderr)
        return 0
    # diff
    old = RunReport.load(args.old)
    new = RunReport.load(args.new)
    deltas = diff_reports(
        old, new, num_samples=args.samples, alpha=args.alpha
    )
    rows = []
    for delta in deltas:
        rows.append([
            delta.name,
            "-" if delta.old_f1 is None else delta.old_f1,
            "-" if delta.new_f1 is None else delta.new_f1,
            f"{delta.delta:+.2f}",
            "yes" if delta.significant else "no",
            delta.method,
            "REGRESSION" if delta.regression else "",
        ])
    print(
        format_table(
            ["slice", "old F1", "new F1", "delta", "significant", "method", ""],
            rows,
            title=f"{new.name} vs {old.name}",
        )
    )
    gated = regressions(deltas)
    if gated:
        names = ", ".join(delta.name for delta in gated)
        print(f"{len(gated)} significant regression(s): {names}", file=sys.stderr)
        if args.fail_on_regression:
            return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: query per-mention decision provenance.

    Reads the JSONL audit trail written by ``--provenance-out`` and
    prints every record matching the filters — the full candidate set
    with prior and model scores, the deciding tier, and the
    machine-readable escalation reason (docs/OBSERVABILITY.md).
    """
    import json

    records = provenance.load_jsonl(args.records)
    matches = list(
        provenance.query(
            records,
            sentence_id=args.sentence,
            mention_index=args.mention,
            entity_id=args.entity,
            slice_name=args.slice,
            tier=args.tier,
            reason=args.reason,
            surface=args.surface,
        )
    )
    if args.limit is not None:
        matches = matches[: args.limit]
    if args.json:
        print(json.dumps([record.to_dict() for record in matches], indent=2))
        return 0
    titles: dict[int, str] | None = None
    if args.world:
        world = load_world(args.world)
        titles = {
            entity_id: world.kb.entity(entity_id).title
            for record in matches
            for entity_id in (
                *record.candidate_ids,
                record.predicted_entity_id,
                record.gold_entity_id,
            )
            if entity_id is not None
            and 0 <= int(entity_id) < world.kb.num_entities
        }
    if not matches:
        print("no matching decision records", file=sys.stderr)
        return 1
    for record in matches:
        print(provenance.format_record(record, titles=titles))
        print()
    print(f"{len(matches)}/{len(records)} record(s) matched", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    # No parser matches flag prefixes: `report diff --json` would
    # otherwise quietly mean `--json-logs`, and `evaluate --work 2`
    # `--workers 2`.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bootleg reproduction: worlds, corpora, training, annotation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    telemetry = _telemetry_parser()
    store = _store_parser()
    cascade = _cascade_parser()

    world_parser = sub.add_parser(
        "generate-world", help="create a synthetic world", parents=[telemetry],
        allow_abbrev=False,
    )
    world_parser.add_argument("--entities", type=int, default=400)
    world_parser.add_argument("--seed", type=int, default=0)
    world_parser.add_argument("--out", required=True)
    world_parser.set_defaults(func=cmd_generate_world)

    corpus_parser = sub.add_parser(
        "generate-corpus", help="create a corpus", parents=[telemetry],
        allow_abbrev=False,
    )
    corpus_parser.add_argument("--world", required=True)
    corpus_parser.add_argument("--pages", type=int, default=300)
    corpus_parser.add_argument("--seed", type=int, default=0)
    corpus_parser.add_argument("--weak-label", action="store_true")
    corpus_parser.add_argument("--out", required=True)
    corpus_parser.set_defaults(func=cmd_generate_corpus)

    train_parser = sub.add_parser(
        "train", help="train a model", parents=[telemetry], allow_abbrev=False
    )
    train_parser.add_argument("--world", required=True)
    train_parser.add_argument("--corpus", required=True)
    train_parser.add_argument("--preset", choices=sorted(MODEL_PRESETS), default="bootleg")
    train_parser.add_argument("--epochs", type=int, default=20)
    train_parser.add_argument("--batch-size", type=int, default=32)
    train_parser.add_argument("--learning-rate", type=float, default=3e-3)
    train_parser.add_argument("--candidates", type=int, default=6)
    train_parser.add_argument("--seed", type=int, default=0)
    train_parser.add_argument("--out", required=True)
    train_parser.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write a run report (manifest + metrics + per-epoch summaries)",
    )
    train_parser.set_defaults(func=cmd_train)

    eval_parser = sub.add_parser(
        "evaluate",
        help="evaluate a saved model",
        parents=[telemetry, store, cascade],
        allow_abbrev=False,
    )
    eval_parser.add_argument("--world", required=True)
    eval_parser.add_argument("--corpus", required=True)
    eval_parser.add_argument("--model", required=True)
    eval_parser.add_argument("--split", default="val", choices=("train", "val", "test"))
    eval_parser.add_argument(
        "--workers", type=_positive(int), default=1,
        help="run the batch plan across this many worker processes "
             "(1 = in-process serial path)",
    )
    eval_parser.add_argument(
        "--batch-size", type=int, default=64,
        help="evaluation batch size; smaller batches shard more evenly "
             "across --workers on small corpora",
    )
    eval_parser.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write a slice-aware run report (JSON, diffable with "
             "`repro report diff`)",
    )
    eval_parser.add_argument(
        "--report-html", metavar="PATH", default=None,
        help="write a self-contained HTML dashboard of the run report",
    )
    eval_parser.set_defaults(func=cmd_evaluate)

    annotate_parser = sub.add_parser(
        "annotate",
        help="disambiguate free text",
        parents=[telemetry, store, cascade],
        allow_abbrev=False,
    )
    annotate_parser.add_argument("--world", required=True)
    annotate_parser.add_argument("--model", required=True)
    annotate_parser.add_argument("--text", required=True)
    annotate_parser.set_defaults(func=cmd_annotate)

    lint_parser = sub.add_parser(
        "lint",
        help="run the invariant linter (and optionally the model verifier)",
        parents=[telemetry],
        allow_abbrev=False,
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: text lines, or one JSON document on stdout "
             "(default: text)",
    )
    lint_parser.add_argument(
        "--warn-only", action="store_true",
        help="downgrade findings to warnings (exit 0; for benchmarks/examples)",
    )
    lint_parser.add_argument(
        "--project", action="store_true",
        help="also run the whole-program pass over each directory "
             "argument: import layering, cycles, dead public symbols, "
             "confined names, resource lifecycles (RA6xx/RA7xx)",
    )
    lint_parser.add_argument(
        "--changed-only", action="store_true",
        help="lint only files git reports as changed (staged, unstaged "
             "or untracked); full walk outside a git work tree",
    )
    lint_parser.add_argument(
        "--models", action="store_true",
        help="also instantiate and verify every registered model",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_parser.set_defaults(func=cmd_lint)

    explain_parser = sub.add_parser(
        "explain",
        help="query per-mention decision provenance records",
        parents=[telemetry],
        allow_abbrev=False,
    )
    explain_parser.add_argument(
        "records",
        help="decision-record JSONL path (written by --provenance-out)",
    )
    explain_parser.add_argument(
        "--sentence", type=int, default=None, metavar="ID",
        help="only records for this sentence id",
    )
    explain_parser.add_argument(
        "--mention", type=int, default=None, metavar="I",
        help="only records for this mention index within the sentence",
    )
    explain_parser.add_argument(
        "--entity", "--qid", type=int, default=None, metavar="ID",
        dest="entity",
        help="only records whose prediction, gold, or candidate set "
             "includes this entity id",
    )
    explain_parser.add_argument(
        "--slice", default=None, metavar="NAME",
        help="only records in this slice (tail, unseen, kg-relation, ...)",
    )
    explain_parser.add_argument(
        "--tier", default=None, choices=("tier0", "model"),
        help="only records decided at this cascade tier",
    )
    explain_parser.add_argument(
        "--reason", default=None, metavar="REASON",
        help="only records with this decision reason "
             "(e.g. margin-too-small, type-veto)",
    )
    explain_parser.add_argument(
        "--surface", default=None, metavar="TEXT",
        help="only records whose surface form contains TEXT "
             "(case-insensitive)",
    )
    explain_parser.add_argument(
        "--world", default=None, metavar="PATH",
        help="world file for resolving entity ids to titles in the "
             "text rendering",
    )
    explain_parser.add_argument(
        "--limit", type=_positive(int), default=None, metavar="N",
        help="print at most N matching records",
    )
    explain_parser.add_argument(
        "--json", action="store_true",
        help="emit matching records as a JSON array instead of text",
    )
    explain_parser.set_defaults(func=cmd_explain)

    report_parser = sub.add_parser(
        "report", help="inspect, render, and diff run reports",
        allow_abbrev=False,
    )
    report_sub = report_parser.add_subparsers(
        dest="report_command", required=True
    )
    show_parser = report_sub.add_parser(
        "show", help="print a report's manifest and slice table",
        parents=[telemetry], allow_abbrev=False,
    )
    show_parser.add_argument("report", help="run report JSON path")
    html_parser = report_sub.add_parser(
        "html", help="render a saved report as a self-contained dashboard",
        parents=[telemetry], allow_abbrev=False,
    )
    html_parser.add_argument("report", help="run report JSON path")
    html_parser.add_argument("out", help="HTML output path")
    diff_parser = report_sub.add_parser(
        "diff", help="compare two reports slice by slice",
        parents=[telemetry], allow_abbrev=False,
    )
    diff_parser.add_argument("old", help="baseline run report JSON path")
    diff_parser.add_argument("new", help="candidate run report JSON path")
    diff_parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero when any slice regresses with bootstrap "
             "significance (the CI gate)",
    )
    diff_parser.add_argument(
        "--samples", type=_positive(int), default=1000,
        help="paired-bootstrap resamples (default 1000)",
    )
    diff_parser.add_argument(
        "--alpha", type=_positive(float, below=1.0), default=0.05,
        help="significance level for the bootstrap interval (default 0.05)",
    )
    report_parser.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_backend_flags(parser, args)
    try:
        # Inside the try so a setup failure is reported like any other
        # and leaves recording off for in-process callers.
        _setup_telemetry(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _export_telemetry(args)


if __name__ == "__main__":
    sys.exit(main())
