"""Slice-aware run reports with regression gating.

A :class:`RunReport` is the single artifact a run leaves behind: a
manifest (config, seed, git sha, wall clock, environment), the merged
metrics snapshot (including everything pool workers shipped back), and
per-slice evaluation scores — the popularity buckets of Section 4.1 and
the reasoning-pattern slices of Section 5 — each with a bootstrap
confidence interval and the raw per-mention outcome vector.

Keeping the outcome vectors in the report is what makes
:func:`diff_reports` sharp: two reports over the same split can be
compared with the *paired* bootstrap from :mod:`repro.eval.bootstrap`
(mentions matched by ``(sentence_id, mention_index)``), which is far
more sensitive than comparing two marginal confidence intervals. A
slice "regresses" only when the new F1 is lower *and* the paired
difference is bootstrap-significant — noise-level wobble on a tiny
tail slice does not fail a CI gate.

Exports: :meth:`RunReport.save` (JSON, the diffable format) and
:meth:`RunReport.to_html` (a self-contained dashboard — inline CSS, no
external assets — with the manifest, slice table with CI bars, and the
metrics inventory).
"""

from __future__ import annotations

import dataclasses
import html
import json
import platform
import subprocess
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.corpus.stats import BUCKETS, EntityCounts
from repro.errors import ReproError
from repro.eval.bootstrap import bootstrap_f1, f1_difference_significant
from repro.eval.metrics import filter_predictions
from repro.eval.patterns import slice_predictions
from repro.eval.predictions import MentionPrediction
from repro.eval.slices import slice_by_bucket

REPORT_VERSION = 1

# Slice order for tables: overall first, then popularity, then patterns.
# Every name doubles as a ``slice=`` label value, so it must stay within
# the metric-key-safe alphabet (see lint rule RA403).
SLICE_ORDER = ("all",) + BUCKETS


@dataclasses.dataclass
class SliceScore:
    """One slice's evaluation outcome.

    ``outcomes`` holds ``[sentence_id, mention_index, correct]`` rows —
    the raw per-mention record that lets :func:`diff_reports` run a
    paired bootstrap between two runs instead of comparing intervals.
    """

    name: str
    f1: float
    low: float
    high: float
    num_mentions: int
    outcomes: list[list[int]] = dataclasses.field(default_factory=list)
    # Cascade tier attribution: record count per tier label ("model",
    # "tier0"). Empty for reports written before the cascade existed.
    tiers: dict[str, int] = dataclasses.field(default_factory=dict)
    # Provenance drill-down: full DecisionRecord dicts for the slice's
    # worst bootstrap-scored failures (most confidently wrong first).
    # Empty unless the run captured provenance (--provenance-out).
    examples: list[dict] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "f1": self.f1,
            "low": self.low,
            "high": self.high,
            "num_mentions": self.num_mentions,
            "outcomes": [list(row) for row in self.outcomes],
            "tiers": dict(self.tiers),
            "examples": [dict(example) for example in self.examples],
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "SliceScore":
        return cls(
            name=name,
            f1=float(payload["f1"]),
            low=float(payload["low"]),
            high=float(payload["high"]),
            num_mentions=int(payload["num_mentions"]),
            outcomes=[list(row) for row in payload.get("outcomes", [])],
            tiers={
                str(key): int(value)
                for key, value in payload.get("tiers", {}).items()
            },
            examples=[dict(ex) for ex in payload.get("examples", [])],
        )


def score_slices(
    records: Sequence[MentionPrediction],
    counts: EntityCounts | None = None,
    membership: dict | None = None,
    num_samples: int = 500,
    seed: int = 0,
) -> dict[str, SliceScore]:
    """Bootstrap-scored slices: "all", popularity buckets, patterns.

    ``counts`` enables the head/torso/tail/unseen buckets; ``membership``
    (from :meth:`~repro.eval.patterns.PatternSlicer.build_membership`)
    enables the reasoning-pattern slices. Either may be omitted.
    """
    filtered = filter_predictions(records)
    slices: dict[str, list[MentionPrediction]] = {"all": filtered}
    if counts is not None:
        slices.update(slice_by_bucket(records, counts))
    if membership is not None:
        slices.update(slice_predictions(filtered, membership))
    scores: dict[str, SliceScore] = {}
    for name, members in slices.items():
        # Members are pre-filtered; re-filtering would double-drop weak
        # labels that bucket slicing already removed.
        interval = bootstrap_f1(
            members,
            num_samples=num_samples,
            seed=seed,
            only_evaluable=False,
            exclude_weak=False,
        )
        # Tier attribution by string label rather than the repro.cascade
        # constants: the cascade package imports repro.obs, so importing
        # back from here would cycle. "model" matches records produced
        # before tier tracking existed.
        tiers: dict[str, int] = {}
        for p in members:
            label = getattr(p, "tier", "model")
            tiers[label] = tiers.get(label, 0) + 1
        scores[name] = SliceScore(
            name=name,
            f1=interval.point,
            low=interval.low,
            high=interval.high,
            num_mentions=interval.num_mentions,
            outcomes=[
                [p.sentence_id, p.mention_index, int(p.correct)]
                for p in members
            ],
            tiers=tiers,
        )
    return scores


def attach_slice_examples(
    scores: dict[str, SliceScore], max_examples: int = 3
) -> None:
    """Link each slice's worst failures to their full decision records.

    For every slice, the failed outcomes (``correct == 0``) are joined
    to the run's decision records, every one of which the recorder
    keeps, by ``(sentence_id, mention_index)``, and the
    ``max_examples`` *most confidently wrong* records (highest decision
    confidence) are attached as :attr:`SliceScore.examples` — the HTML
    dashboard renders them as a per-slice drill-down. No-op unless
    provenance capture is active.
    """
    from repro.obs import provenance

    if not provenance.active:
        return
    by_key = {
        record.key: record for record in provenance.recorder().records()
    }
    for score in scores.values():
        failures = [
            record
            for sentence_id, mention_index, correct in score.outcomes
            if not correct
            and (record := by_key.get((sentence_id, mention_index)))
            is not None
        ]
        failures.sort(key=lambda record: -record.confidence)
        score.examples = [
            record.to_dict() for record in failures[:max_examples]
        ]


def emit_slice_gauges(scores: dict[str, SliceScore], metrics=None) -> None:
    """Record every slice F1 as a labeled gauge (``eval.slice_f1{slice=…}``).

    Slice names come from the fixed BUCKETS/PATTERN_SLICES vocabularies,
    so gauge cardinality is bounded. Emitting through the registry means
    slice scores travel with ``--metrics-out`` exports and merged pool
    telemetry, not just the report file.
    """
    import repro.obs as obs

    metrics = metrics if metrics is not None else obs.metrics
    for name, score in scores.items():
        metrics.gauge("eval.slice_f1", slice=name).set(score.f1)
        metrics.gauge("eval.slice_mentions", slice=name).set(
            float(score.num_mentions)
        )


def collect_environment() -> dict:
    """Reproducibility manifest: interpreter, platform, numpy."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "argv": list(sys.argv),
    }


def current_git_sha() -> str:
    """HEAD sha of the working tree, or "" when git is unavailable."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return result.stdout.strip() if result.returncode == 0 else ""


@dataclasses.dataclass
class RunReport:
    """Manifest + merged metrics + per-slice scores of one run."""

    name: str
    config: dict
    seed: int | None
    git_sha: str
    created: float
    wall_seconds: float
    environment: dict
    metrics: dict
    slices: dict[str, SliceScore]
    train: dict | None = None
    version: int = REPORT_VERSION

    @classmethod
    def build(
        cls,
        name: str,
        records: Sequence[MentionPrediction] | None = None,
        counts: EntityCounts | None = None,
        membership: dict | None = None,
        config: dict | None = None,
        seed: int | None = None,
        wall_seconds: float = 0.0,
        train: dict | None = None,
        num_samples: int = 500,
    ) -> "RunReport":
        """Assemble a report from a finished run.

        Slice scores are emitted as gauges *before* the metrics snapshot
        is taken, so ``eval.slice_f1{slice=…}`` appears both in the
        report and in any ``--metrics-out`` export.
        """
        import repro.obs as obs

        scores = (
            score_slices(
                records,
                counts=counts,
                membership=membership,
                num_samples=num_samples,
            )
            if records is not None
            else {}
        )
        if scores and obs.enabled:
            emit_slice_gauges(scores)
            attach_slice_examples(scores)
        return cls(
            name=name,
            config=dict(config or {}),
            seed=seed,
            git_sha=current_git_sha(),
            created=time.time(),
            wall_seconds=wall_seconds,
            environment=collect_environment(),
            metrics=obs.metrics.to_dict() if obs.enabled else {},
            slices=scores,
            train=train,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "config": self.config,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "created": self.created,
            "wall_seconds": self.wall_seconds,
            "environment": self.environment,
            "metrics": self.metrics,
            "slices": {
                name: score.to_dict() for name, score in self.slices.items()
            },
            "train": self.train,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        if "slices" not in payload:
            raise ReproError("not a run report: missing 'slices' section")
        return cls(
            name=payload.get("name", ""),
            config=dict(payload.get("config", {})),
            seed=payload.get("seed"),
            git_sha=payload.get("git_sha", ""),
            created=float(payload.get("created", 0.0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            environment=dict(payload.get("environment", {})),
            metrics=dict(payload.get("metrics", {})),
            slices={
                name: SliceScore.from_dict(name, score)
                for name, score in payload["slices"].items()
            },
            train=payload.get("train"),
            version=int(payload.get("version", REPORT_VERSION)),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ReproError(f"cannot read run report {path}: {error}") from error
        return cls.from_dict(payload)

    # -- presentation ---------------------------------------------------
    def ordered_slices(self) -> list[SliceScore]:
        """Slices in display order: all, buckets, then extras sorted."""
        ordered = [
            self.slices[name] for name in SLICE_ORDER if name in self.slices
        ]
        extras = sorted(set(self.slices) - set(SLICE_ORDER))
        ordered.extend(self.slices[name] for name in extras)
        return ordered

    def to_html(self, path) -> None:
        """Write a self-contained HTML dashboard (no external assets)."""
        Path(path).write_text(render_html(self))


# ----------------------------------------------------------------------
# Report diffing / regression gating
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SliceDelta:
    """Comparison of one slice between two reports.

    ``method`` records how significance was decided:

    - ``paired-bootstrap`` — both reports carried outcome vectors with
      shared mention keys; the gold standard.
    - ``interval-overlap`` — fallback when outcomes are missing or
      disjoint: significant iff the two confidence intervals do not
      overlap (conservative).
    - ``missing`` — the slice exists in only one report; treated as a
      gated regression when it vanished from the new report.
    """

    name: str
    old_f1: float | None
    new_f1: float | None
    delta: float
    significant: bool
    regression: bool
    method: str


_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_SCORES = np.zeros(0, dtype=np.float64)


def _outcome_predictions(outcomes: list[list[int]]) -> list[MentionPrediction]:
    """Rebuild minimal prediction records from an outcome vector.

    Only the pairing key and correctness matter to the paired bootstrap;
    a synthetic gold/predicted pair encodes correct (1 == 1) vs. wrong
    (0 != 1).
    """
    return [
        MentionPrediction(
            sentence_id=int(sentence_id),
            mention_index=int(mention_index),
            surface="",
            gold_entity_id=1,
            predicted_entity_id=1 if correct else 0,
            candidate_ids=_EMPTY_IDS,
            candidate_scores=_EMPTY_SCORES,
            evaluable=True,
            is_weak=False,
        )
        for sentence_id, mention_index, correct in outcomes
    ]


def diff_reports(
    old: RunReport,
    new: RunReport,
    num_samples: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> list[SliceDelta]:
    """Slice-by-slice comparison of two reports (new relative to old)."""
    deltas: list[SliceDelta] = []
    names = [
        name
        for name in SLICE_ORDER
        if name in old.slices or name in new.slices
    ]
    names.extend(
        sorted((set(old.slices) | set(new.slices)) - set(SLICE_ORDER))
    )
    for name in names:
        old_score = old.slices.get(name)
        new_score = new.slices.get(name)
        if old_score is None or new_score is None:
            deltas.append(
                SliceDelta(
                    name=name,
                    old_f1=old_score.f1 if old_score else None,
                    new_f1=new_score.f1 if new_score else None,
                    delta=0.0,
                    significant=new_score is None,
                    regression=new_score is None,
                    method="missing",
                )
            )
            continue
        if old_score.outcomes and new_score.outcomes:
            # Paired bootstrap over shared mention keys; note the order
            # (new - old) so a negative delta means a regression.
            mean_delta, significant = f1_difference_significant(
                _outcome_predictions(new_score.outcomes),
                _outcome_predictions(old_score.outcomes),
                num_samples=num_samples,
                alpha=alpha,
                seed=seed,
            )
            method = "paired-bootstrap"
        else:
            mean_delta = new_score.f1 - old_score.f1
            significant = (
                new_score.high < old_score.low or new_score.low > old_score.high
            )
            method = "interval-overlap"
        deltas.append(
            SliceDelta(
                name=name,
                old_f1=old_score.f1,
                new_f1=new_score.f1,
                delta=mean_delta,
                significant=significant,
                regression=significant and mean_delta < 0.0,
                method=method,
            )
        )
    return deltas


def regressions(deltas: Sequence[SliceDelta]) -> list[SliceDelta]:
    """The subset of deltas that should fail a CI gate."""
    return [delta for delta in deltas if delta.regression]


# ----------------------------------------------------------------------
# HTML dashboard
# ----------------------------------------------------------------------
_HTML_STYLE = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.9rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #e0e0e8; }
th { background: #f4f4f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.manifest td:first-child { color: #666; width: 11rem; }
.bar { position: relative; height: 0.8rem; background: #eef0f4;
       border-radius: 2px; min-width: 12rem; }
.bar .ci { position: absolute; top: 0.25rem; height: 0.3rem;
           background: #9db4d4; }
.bar .pt { position: absolute; top: 0; width: 2px; height: 0.8rem;
           background: #1f4e96; }
.small { color: #666; font-size: 0.8rem; }
details.examples { margin: 0.4rem 0 0.8rem; }
details.examples summary { cursor: pointer; font-size: 0.9rem;
                           color: #1f4e96; }
details.examples table { margin: 0.4rem 0 0 1rem; width: auto; }
.reason { color: #96451f; }
"""


def _format_created(created: float) -> str:
    if not created:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))


def _slice_rows(report: RunReport) -> str:
    rows = []
    for score in report.ordered_slices():
        low = max(0.0, min(100.0, score.low))
        high = max(0.0, min(100.0, score.high))
        point = max(0.0, min(100.0, score.f1))
        bar = (
            f'<div class="bar">'
            f'<div class="ci" style="left:{low:.1f}%;'
            f'width:{max(high - low, 0.5):.1f}%"></div>'
            f'<div class="pt" style="left:{point:.1f}%"></div>'
            f"</div>"
        )
        rows.append(
            "<tr>"
            f"<td>{html.escape(score.name)}</td>"
            f'<td class="num">{score.f1:.1f}</td>'
            f'<td class="num">[{score.low:.1f}, {score.high:.1f}]</td>'
            f'<td class="num">{score.num_mentions}</td>'
            f"<td>{bar}</td>"
            "</tr>"
        )
    return "\n".join(rows)


def _example_sections(report: RunReport) -> str:
    """Per-slice drill-down: each slice's worst failures, full records."""
    parts = []
    for score in report.ordered_slices():
        if not score.examples:
            continue
        rows = []
        for example in score.examples:
            candidates = " ".join(
                "{}:{}{}".format(
                    cid,
                    (
                        f"{example['model_scores'][i]:.3f}"
                        if i < len(example.get("model_scores", []))
                        else "-"
                    ),
                    (
                        f"/p{example['prior_scores'][i]:.3f}"
                        if i < len(example.get("prior_scores", []))
                        else ""
                    ),
                )
                for i, cid in enumerate(example.get("candidate_ids", []))
            )
            rows.append(
                "<tr>"
                f'<td class="num">{example.get("sentence_id", "-")}'
                f"/{example.get('mention_index', '-')}</td>"
                f"<td>{html.escape(str(example.get('surface', '')))}</td>"
                f"<td>{html.escape(str(example.get('tier', '')))}</td>"
                f'<td class="reason">'
                f"{html.escape(str(example.get('reason', '') or '-'))}</td>"
                f'<td class="num">{example.get("predicted_entity_id", -1)}'
                f" &ne; {example.get('gold_entity_id', '-')}</td>"
                f'<td class="num">{example.get("confidence", 0.0):.3f}</td>'
                f'<td class="num">{example.get("worker", -1)}</td>'
                f'<td class="small">{html.escape(candidates)}</td>'
                "</tr>"
            )
        parts.append(
            f'<details class="examples"><summary>{html.escape(score.name)}'
            f" &mdash; {len(score.examples)} worst failure(s)</summary>\n"
            "<table><tr><th>sent/mention</th><th>surface</th><th>tier</th>"
            "<th>reason</th><th>pred &ne; gold</th><th>conf</th>"
            "<th>worker</th><th>candidates (id:model/prior)</th></tr>\n"
            + "\n".join(rows)
            + "</table></details>"
        )
    if not parts:
        return ""
    return (
        "<h2>Failure drill-down (decision provenance)</h2>\n"
        + "\n".join(parts)
    )


def _metric_sections(report: RunReport) -> str:
    parts = []
    counters = report.metrics.get("counters", {})
    gauges = report.metrics.get("gauges", {})
    histograms = report.metrics.get("histograms", {})
    if counters or gauges:
        rows = [
            f"<tr><td>{html.escape(key)}</td>"
            f'<td class="num">{value:g}</td></tr>'
            for key, value in {**counters, **gauges}.items()
            if value is not None
        ]
        parts.append(
            "<h2>Counters &amp; gauges</h2>\n<table>"
            "<tr><th>metric</th><th>value</th></tr>\n"
            + "\n".join(rows)
            + "</table>"
        )
    if histograms:
        rows = []
        for key, summary in histograms.items():
            cells = "".join(
                f'<td class="num">{summary[field]:.4g}</td>'
                if summary.get(field) is not None
                else '<td class="num">-</td>'
                for field in ("count", "mean", "p50", "p90", "p99", "max")
            )
            rows.append(f"<tr><td>{html.escape(key)}</td>{cells}</tr>")
        parts.append(
            "<h2>Histograms</h2>\n<table>"
            "<tr><th>metric</th><th>count</th><th>mean</th><th>p50</th>"
            "<th>p90</th><th>p99</th><th>max</th></tr>\n"
            + "\n".join(rows)
            + "</table>"
        )
    return "\n".join(parts)


def render_html(report: RunReport) -> str:
    """The full dashboard document as a string."""
    manifest_rows = [
        ("run", report.name),
        ("created", _format_created(report.created)),
        ("git sha", report.git_sha or "-"),
        ("seed", "-" if report.seed is None else str(report.seed)),
        ("wall clock", f"{report.wall_seconds:.1f}s"),
        ("python", report.environment.get("python", "-")),
        ("platform", report.environment.get("platform", "-")),
        ("numpy", report.environment.get("numpy", "-")),
    ]
    if report.config:
        manifest_rows.append(
            ("config", json.dumps(report.config, sort_keys=True))
        )
    manifest = "\n".join(
        f"<tr><td>{html.escape(label)}</td>"
        f"<td>{html.escape(str(value))}</td></tr>"
        for label, value in manifest_rows
    )
    slice_section = ""
    if report.slices:
        slice_section = (
            "<h2>Slice F1 (bootstrap 95% CI)</h2>\n<table>"
            "<tr><th>slice</th><th>F1</th><th>95% CI</th><th>n</th>"
            "<th>0&ndash;100</th></tr>\n"
            + _slice_rows(report)
            + "</table>"
        )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(report.name)} — run report</title>"
        f"<style>{_HTML_STYLE}</style></head>\n<body>\n"
        f"<h1>Run report: {html.escape(report.name)}</h1>\n"
        f'<table class="manifest">{manifest}</table>\n'
        f"{slice_section}\n"
        f"{_example_sections(report)}\n"
        f"{_metric_sections(report)}\n"
        '<p class="small">Self-contained export; regenerate with '
        "<code>repro evaluate --report-html</code>.</p>\n"
        "</body></html>\n"
    )
