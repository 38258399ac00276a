"""Tiered-cascade gates: throughput, byte-identity, no slice regression.

Three gates over the heuristic→model inference cascade
(docs/CASCADE.md), on a head-heavy synthetic corpus (the perf world's
priors answer ~98% of mentions at tier 0, matching the paper's
observation that head mentions resolve by popularity alone):

(a) ``--min-speedup`` (default 2x) end-to-end annotation throughput of
    the cascade annotator over the full-model path;
(b) escalated-mention outputs byte-identical to a standalone full-model
    pass over exactly the escalated documents (the cascade batches
    escalated work the same way that pass would);
(c) ``repro report diff --fail-on-regression`` passes with the
    full-model evaluate report as the baseline — the cascade must not
    significantly regress any slice.

Also micro-asserts the mention-detector satellite: the longest-match
window is bounded by the candidate map's longest alias, so a scan of
unknown tokens probes once per position here (``max_alias_tokens == 1``
in the perf world) instead of ``max_span`` times.

Usage::

    PYTHONPATH=src python benchmarks/bench_cascade.py \
        --out benchmarks/results/BENCH_cascade.json

The JSON output uses the pytest-benchmark shape; the ``cascade_speedup``
entry carries ``higher_is_better`` so ``compare_to_baseline.py`` gates
it in the right direction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_perf_core import build_perf_setup, make_annotator  # noqa: E402

from repro.cascade import (  # noqa: E402
    TIER_MODEL,
    CascadePolicy,
    Tier0Linker,
)
from repro.cli import main as repro_main  # noqa: E402
from repro.core import BootlegAnnotator  # noqa: E402
from repro.core.trainer import predict  # noqa: E402
from repro.corpus import EntityCounts, NedDataset, detokenize  # noqa: E402
from repro.corpus.tokenizer import tokenize  # noqa: E402
from repro.nn.tensor import compute_dtype  # noqa: E402
from repro.obs.report import RunReport  # noqa: E402


def _measure(fn, repeat: int) -> tuple[float, object]:
    """Best-of-``repeat`` wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class _ProbeCountingMap:
    """Delegating candidate-map spy counting lookup probes."""

    def __init__(self, inner):
        self.inner = inner
        self.probes = 0

    def get_candidates(self, alias, k=None):
        self.probes += 1
        return self.inner.get_candidates(alias, k)

    def max_alias_tokens(self):
        return self.inner.max_alias_tokens()


def _assert_detector_bounded(world) -> None:
    from repro.candgen.detection import MentionDetector

    spy = _ProbeCountingMap(world.candidate_map)
    detector = MentionDetector(spy, max_span=3, expand_boundaries=False)
    unknown = [f"zz{i}" for i in range(64)]
    detector.detect(unknown)
    bound = world.candidate_map.max_alias_tokens() * len(unknown)
    if spy.probes > bound:
        raise AssertionError(
            f"detector probed {spy.probes} times; the alias-length bound "
            f"allows at most {bound}"
        )
    print(
        f"detector scan bounded: {spy.probes} probes over {len(unknown)} "
        f"tokens (max alias {world.candidate_map.max_alias_tokens()} "
        "token(s), configured window 3)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="write pytest-benchmark-shaped JSON here")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--replicas", type=int, default=5,
                        help="how many times to replicate the base texts")
    parser.add_argument("--results-dir", type=Path,
                        default=Path("benchmarks/results"),
                        help="where the report-diff gate writes its reports")
    args = parser.parse_args(argv)

    print("building workload...")
    setup = build_perf_setup()
    world = setup["world"]
    corpus = setup["corpus"]
    model32 = setup["model32"]
    policy = CascadePolicy()
    full = make_annotator(setup, model32)
    cascade = BootlegAnnotator(
        model32, setup["vocab"], world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=6, cascade=policy,
    )
    base = [
        detokenize(list(s.tokens)) for s in corpus.sentences("test")
    ]
    base = [t for t in base if full.detect_mentions(tokenize(t))]
    texts = base * args.replicas
    print(f"{len(texts)} documents ({len(base)} unique), best of {args.repeat}")

    failures: list[str] = []
    _assert_detector_bounded(world)

    with compute_dtype(np.float32):
        full.annotate_batch(texts[:8])  # warm the payload cache
        full_seconds, full_out = _measure(
            lambda: full.annotate_batch(texts), args.repeat
        )
        cascade_seconds, cascade_out = _measure(
            lambda: cascade.annotate_batch(texts), args.repeat
        )

        # Gate (b): escalated mentions byte-identical to the full path
        # run over exactly the escalated documents.
        escalated_docs = [
            index
            for index, doc in enumerate(cascade_out)
            if any(m.tier == TIER_MODEL for m in doc)
        ]
        num_tier0 = sum(
            1 for doc in cascade_out for m in doc if m.tier != TIER_MODEL
        )
        num_escalated_mentions = sum(
            1 for doc in cascade_out for m in doc if m.tier == TIER_MODEL
        )
        print(
            f"tier-0 answered {num_tier0} annotation(s); "
            f"{num_escalated_mentions} escalated across "
            f"{len(escalated_docs)} document(s)"
        )
        if not escalated_docs:
            failures.append(
                "corpus produced zero escalations; the byte-identity gate "
                "needs at least one escalated document"
            )
        else:
            standalone = full.annotate_batch(
                [texts[i] for i in escalated_docs]
            )
            for doc_index, full_doc in zip(escalated_docs, standalone):
                by_span = {(m.start, m.end): m for m in full_doc}
                for mention in cascade_out[doc_index]:
                    if mention.tier != TIER_MODEL:
                        continue
                    twin = by_span[(mention.start, mention.end)]
                    if dataclasses.asdict(mention) != dataclasses.asdict(twin):
                        failures.append(
                            "escalated mention at document "
                            f"{doc_index} span ({mention.start}, "
                            f"{mention.end}) diverges from the standalone "
                            "full-model pass"
                        )
            if not any("escalated mention" in f for f in failures):
                print("escalated outputs: byte-identical to the full path")
        if len(full_out) != len(cascade_out):
            failures.append("document counts diverge between the two paths")

    # Gate (a): end-to-end throughput.
    speedup = full_seconds / cascade_seconds
    print(f"full   : {full_seconds:.3f}s ({len(texts) / full_seconds:.1f} docs/s)")
    print(f"cascade: {cascade_seconds:.3f}s ({len(texts) / cascade_seconds:.1f} docs/s)")
    print(f"speedup: {speedup:.2f}x")
    if speedup < args.min_speedup:
        failures.append(
            f"cascade speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor"
        )

    # Gate (c): the cascade's evaluate report must not significantly
    # regress any slice against the full-model baseline report.
    args.results_dir.mkdir(parents=True, exist_ok=True)
    model = setup["model"]
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    val = NedDataset(
        corpus, "val", setup["vocab"], world.candidate_map, 6, kgs=[world.kg]
    )
    full_records = predict(model, val)
    cascade_records = BootlegAnnotator(
        model, setup["vocab"], world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=6, batch_size=64, cascade=policy,
    ).predict_sentences(corpus.sentences("val"))
    full_path = args.results_dir / "cascade_gate_full.json"
    cascade_path = args.results_dir / "cascade_gate_cascade.json"
    RunReport.build(
        name="evaluate:val:full", records=full_records, counts=counts,
        config={"cascade": None},
    ).save(full_path)
    RunReport.build(
        name="evaluate:val:cascade", records=cascade_records, counts=counts,
        config={"cascade": dataclasses.asdict(policy)},
    ).save(cascade_path)
    diff_rc = repro_main([
        "report", "diff", str(full_path), str(cascade_path),
        "--fail-on-regression",
    ])
    if diff_rc != 0:
        failures.append(
            "report diff --fail-on-regression found a significant slice "
            "regression vs the full-model baseline"
        )
    else:
        print("report diff: no significant slice regression")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        tier0 = Tier0Linker(
            world.candidate_map, policy, kb=world.kb, num_candidates=6
        )
        surfaces = sorted(
            {m.surface for r in full_records for m in [r]}
        )
        answered = sum(1 for s in surfaces if tier0.resolve(s).answered)
        report = {
            "benchmarks": [
                {
                    "name": "annotate_batch_full",
                    "stats": {"mean": full_seconds},
                },
                {
                    "name": "annotate_batch_cascade",
                    "stats": {"mean": cascade_seconds},
                },
                {
                    "name": "cascade_speedup",
                    "stats": {"mean": speedup},
                    "higher_is_better": True,
                },
            ],
            "extra": {
                "documents": len(texts),
                "tier0_annotations": num_tier0,
                "escalated_mentions": num_escalated_mentions,
                "escalated_documents": len(escalated_docs),
                "policy": dataclasses.asdict(policy),
                "unique_surfaces_answered": [answered, len(surfaces)],
            },
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
