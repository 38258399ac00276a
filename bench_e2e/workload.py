"""The four workloads: set-up, reference pass, checks, timed passes.

Each workload is a closed loop: the benchmark process is the single
caller and makes its next call only when the previous one returned.
Every pass annotates the same fixed document list in the same calls,
after a ``gc.collect()``, so a pass's work and its collector activity
repeat exactly; a run makes whole passes until ``--seconds`` have
passed. Throughput is documents over the time spent in calls; a
document's latency is that of the call carrying it (see
:func:`document_latencies`).

The end-to-end times are scaled to a reference host speed. The shared
host runs the same work up to a quarter slower for minutes at a time,
which moved medians of identical code by more than their bounds
between two sets of runs. A fixed loop timed before and after every
pass and every set-up (``tracing.host_probe_ms``) reads the host's
speed; each pass's and set-up's times are divided by the ratio of that
reading to ``tracing.REFERENCE_PROBE_MS``. The unscaled values are in
the run's record. Per-layer times are not scaled.

A call fails if it raises, if its output differs from the reference
pass, or if its reference output failed the workload's correctness
check. Accuracy comes from the reference pass.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from collections.abc import Callable

import checks
import tracing
from prepare import Document, Prepared, Profile, held_out_documents, load_model

from repro.cascade import CascadePolicy, Tier0Linker
from repro.core.annotator import BootlegAnnotator
from repro.corpus.stats import EntityCounts
from repro.corpus.tokenizer import tokenize
from repro.kb.aliases import normalize_alias
from repro.kb.io import load_world
from repro.parallel import AnnotatorPool

POOL_WORKERS = 2
# Documents in the set-up's warm-up call on the bulk workloads: one
# annotator batch (32 documents) for each pool worker.
WARMUP_DOCUMENTS = 32 * POOL_WORKERS


@dataclasses.dataclass(frozen=True)
class Workload:
    documents: str  # "tail" (held-out validation/test mix) or "zipf"
    single: bool  # one document per ``annotate()`` call
    cascade: bool  # annotator built with ``CascadePolicy()``
    workers: int  # ``AnnotatorPool`` workers; 0 runs the serial annotator
    why: str


WORKLOADS = {
    "bulk_tail_full": Workload(
        "tail", single=False, cascade=False, workers=0,
        why="tail-enriched held-out text through serial annotate_batch and "
        "the full model: encode, KG and model layers do the work",
    ),
    "bulk_zipf_cascade": Workload(
        "zipf", single=False, cascade=True, workers=0,
        why="Zipf-sampled held-out text with CascadePolicy(): tier 0 answers "
        "most mentions, so tokenize, detect, tier 0 and assembly dominate",
    ),
    "serve_single_tail": Workload(
        "tail", single=True, cascade=False, workers=0,
        why="one tail document per annotate() call: the bulk layers at "
        "batch size 1, where fixed per-call costs dominate",
    ),
    "bulk_tail_pool2": Workload(
        "tail", single=False, cascade=False, workers=POOL_WORKERS,
        why="bulk_tail_full's calls through a 2-worker AnnotatorPool: the "
        "only workload that runs repro.parallel",
    ),
}

# name -> (unit, better). BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "docs_per_s": ("docs/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "f1": ("fraction", "higher"),
    "tail_f1": ("fraction", "higher"),
    "unseen_f1": ("fraction", "higher"),
    "pss_mb": ("MB", "lower"),
}

# Span name -> per-layer self-time metric (seconds per pass).
SELF_TIME_METRICS = {
    "tokenize": "tokenize.self_s",
    "detect": "detect.self_s",
    "tier0": "tier0.self_s",
    "encode": "encode.self_s",
    "collate": "collate.self_s",
    "candidates": "candidates.self_s",
    "kg_adjacency": "kg_adjacency.self_s",
    "encoder": "encoder.self_s",
    "payload": "payload.self_s",
    "store": "store.gather_s",
    "phrase2ent": "phrase2ent.self_s",
    "ent2ent": "ent2ent.self_s",
    "kg2ent": "kg2ent.self_s",
    "scoring": "scoring.self_s",
    "decode": "decode.self_s",
    "annotator": "annotator.self_s",
}

SETUP_STAGES = ("world", "model", "payload_cache", "annotator", "pool", "warmup")

PER_LAYER = {
    **{metric: ("s", "lower") for metric in SELF_TIME_METRICS.values()},
    "detect.mentions": ("count", "higher"),
    "tier0.escalated_frac": ("fraction", "lower"),
    "tier0.escalated_docs_frac": ("fraction", "lower"),
    "model.batches": ("count", "lower"),
    "model.batch_fill": ("fraction", "higher"),
    "kg_adjacency.calls": ("count", "lower"),
    "store.rows": ("count", "lower"),
    "pool.owner_cpu_frac": ("fraction", "lower"),
    "pool.worker_cpu_frac": ("fraction", "higher"),
    "pool.wait_s": ("s", "lower"),
    "gc.pause_s": ("s", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    **{f"setup.{stage}_s": ("s", "lower") for stage in SETUP_STAGES},
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
}

# The tail latency is the highest percentile with this many samples
# beyond it.
TAIL_SAMPLES_BEYOND = 10


@dataclasses.dataclass
class Session:
    """What one set-up built, with its stage timings."""

    annotator: BootlegAnnotator
    counts: EntityCounts  # training popularity, for the gold buckets
    pool: AnnotatorPool | None
    stages: dict[str, float]
    seconds: float

    def invoke(self, single: bool) -> Callable:
        """The workload's call: one text, or a list of texts."""
        if single:
            annotate = self.annotator.annotate
            return lambda text: [annotate(text)]
        target = self.pool if self.pool is not None else self.annotator
        return target.annotate_batch

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def set_up(prepared: Prepared, workload: Workload, warm_call) -> Session:
    """Load the on-disk world and checkpoint into a warmed annotator."""
    clock = time.perf_counter
    stages = {}
    started = clock()
    world = load_world(prepared.world_path)
    stages["world"] = clock() - started
    mark = clock()
    model, vocab, config, entity_counts = load_model(world, prepared.model_path)
    stages["model"] = clock() - mark
    mark = clock()
    if model.payload_cache_enabled and not config.use_title_feature:
        # As `repro annotate` does: build the payload cache before the
        # first request.
        model.embedder.build_static_cache()
    stages["payload_cache"] = clock() - mark
    mark = clock()
    annotator = BootlegAnnotator(
        model, vocab, world.candidate_map, world.kb,
        kgs=[world.kg], num_candidates=config.num_candidates,
        cascade=CascadePolicy() if workload.cascade else None,
    )
    stages["annotator"] = clock() - mark
    mark = clock()
    pool = (
        AnnotatorPool.from_annotator(annotator, workload.workers)
        if workload.workers
        else None
    )
    stages["pool"] = clock() - mark
    session = Session(annotator, EntityCounts(entity_counts), pool, stages, 0.0)
    mark = clock()
    try:
        session.invoke(workload.single)(warm_call)
    except BaseException:
        session.close()
        raise
    stages["warmup"] = clock() - mark
    session.seconds = clock() - started
    return session


@dataclasses.dataclass
class Phase:
    """Measurements of one sequence of timed passes."""

    pass_seconds: list[float] = dataclasses.field(default_factory=list)
    latencies: list[float] = dataclasses.field(default_factory=list)
    # Per pass: how much slower than the reference the host ran.
    host_factors: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    owner_cpu_seconds: float = 0.0
    worker_cpu_seconds: float = 0.0


def timed_pass(
    phase: Phase,
    invoke: Callable,
    *,
    calls: list,
    reference: list,
    bad_calls: set[int],
    worker_pids: list[int],
    tracer: tracing.Tracer | None = None,
    gc_monitor: tracing.GcMonitor | None = None,
) -> None:
    """One pass over ``calls``, recorded into ``phase``.

    A call fails if it raises, if its reference call failed a check, or
    if its output is not equal to the reference pass's.
    """
    clock = time.perf_counter
    cpu = time.process_time
    probe = tracing.host_probe_ms()
    gc.collect()
    workers_before = sum(tracing.cpu_seconds(pid) for pid in worker_pids)
    pass_seconds = 0.0
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id += 1
        if gc_monitor is not None:
            gc_monitor.active = True
        cpu_start = cpu()
        call_start = clock()
        try:
            output = invoke(call)
        except Exception:  # counted as a failed call
            output = None
            traceback.print_exc(file=sys.stderr)
        elapsed = clock() - call_start
        phase.owner_cpu_seconds += cpu() - cpu_start
        if gc_monitor is not None:
            gc_monitor.active = False
        pass_seconds += elapsed
        phase.latencies.append(elapsed)
        phase.attempted += 1
        if output is None or index in bad_calls or output != reference[index]:
            phase.failed += 1
    phase.worker_cpu_seconds += (
        sum(tracing.cpu_seconds(pid) for pid in worker_pids) - workers_before
    )
    phase.pass_seconds.append(pass_seconds)
    phase.host_factors.append(tracing.host_factor(probe, tracing.host_probe_ms()))


def input_properties(
    annotator: BootlegAnnotator,
    counts: EntityCounts,
    documents: list[Document],
    call_size: int,
    l2_bytes: int | None,
) -> tuple[dict, list[list[int]]]:
    """Workload input properties, plus each call's escalating documents.

    Tier-0 escalation is what ``CascadePolicy()`` would do with these
    documents, whether or not the workload runs the cascade.
    """
    linker = Tier0Linker(
        annotator.candidate_map, CascadePolicy(), kb=annotator.kb,
        num_candidates=annotator.num_candidates,
    )
    detected = escalated_mentions = 0
    surfaces = set()
    escalated_docs: list[list[int]] = []
    for index, document in enumerate(documents):
        if index % call_size == 0:
            escalated_docs.append([])
        tokens = tokenize(document.text)
        spans = annotator.detect_mentions(tokens)
        abstained = 0
        for start, end in spans:
            surface = " ".join(tokens[start:end])
            surfaces.add(normalize_alias(surface))
            abstained += not linker.resolve(surface).answered
        detected += len(spans)
        escalated_mentions += abstained
        if abstained:
            escalated_docs[-1].append(index % call_size)
    gold = [entity for document in documents for _, _, entity in document.gold]
    buckets = {"head": 0, "torso": 0, "tail": 0, "unseen": 0}
    for entity in gold:
        buckets[counts.bucket_of(entity)] += 1
    store = annotator.model.embedder.payload_store
    payload_bytes = store.resident_bytes() if store is not None else None
    properties = {
        "documents": len(documents),
        "gold_mentions": len(gold),
        "detected_mentions": detected,
        "mentions_per_doc": detected / max(1, len(documents)),
        "gold_bucket_shares": {
            bucket: count / max(1, len(gold)) for bucket, count in buckets.items()
        },
        "unique_surfaces": len(surfaces),
        "tier0_escalated_frac": escalated_mentions / max(1, detected),
        "tier0_escalated_docs_frac": sum(map(len, escalated_docs))
        / max(1, len(documents)),
        "payload_bytes": payload_bytes,
        "l2_bytes": l2_bytes,
        "payload_over_l2": (
            payload_bytes / l2_bytes if payload_bytes and l2_bytes else None
        ),
    }
    return properties, escalated_docs


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_SAMPLES_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def document_latencies(
    phase: Phase, call_sizes: list[int], scaled: bool = True
) -> list[float]:
    """Each document's latency: its call's median over the passes.

    A document waits for the call that carries it. Every pass repeats
    the same calls, so the median over passes keeps what recurs (the
    document's own cost, collections that land on it every pass) and
    drops a one-off preemption of the benchmark process by the host,
    which otherwise decides the deepest percentile on its own. Each
    call is scaled by its pass's host factor unless ``scaled`` is false.
    """
    calls = len(call_sizes)
    latencies = [
        latency / (phase.host_factors[index // calls] if scaled else 1.0)
        for index, latency in enumerate(phase.latencies)
    ]
    return [
        statistics.median(latencies[index::calls])
        for index, size in enumerate(call_sizes)
        for _ in range(size)
    ]


@dataclasses.dataclass
class Outcome:
    """A run's metrics, its call accounting and what it recorded."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    details: dict
    tracer: tracing.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def run(
    prepared: Prepared,
    profile: Profile,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    l2_bytes: int | None,
) -> Outcome:
    """Set up, check and measure one workload."""
    workload = WORKLOADS[name]
    documents = held_out_documents(
        load_world(prepared.world_path), profile, seed, workload.documents
    )
    texts = [document.text for document in documents]
    size = profile.call_size
    batched_calls = [texts[i : i + size] for i in range(0, len(texts), size)]
    calls = texts if workload.single else batched_calls
    call_sizes = [1 if workload.single else len(call) for call in calls]
    # One model batch per pool worker warms every worker; the serial
    # paths need no more.
    warm_call = texts[0] if workload.single else texts[:WARMUP_DOCUMENTS]

    setup_seconds: list[float] = []  # scaled to the reference host speed
    raw_setup_seconds: list[float] = []
    stage_seconds: dict[str, list[float]] = {stage: [] for stage in SETUP_STAGES}
    session = None
    try:
        for _ in range(profile.setups):
            if session is not None:
                # Free one set-up before the next, so the last one does
                # not inherit a heap grown to hold two.
                session.close()
                session = None
            gc.collect()
            probe = tracing.host_probe_ms()
            session = set_up(prepared, workload, warm_call)
            factor = tracing.host_factor(probe, tracing.host_probe_ms())
            setup_seconds.append(session.seconds / factor)
            raw_setup_seconds.append(session.seconds)
            for stage in SETUP_STAGES:
                stage_seconds[stage].append(session.stages[stage])
        reference = _reference_pass(
            session, workload, name, prepared, documents, calls, batched_calls,
            size, l2_bytes,
        )
        worker_pids = session.pool.worker_pids() if session.pool is not None else []
        pass_args = dict(
            calls=calls,
            reference=reference.outputs,
            bad_calls=reference.bad_calls,
            worker_pids=worker_pids,
        )
        invoke = session.invoke(workload.single)
        phase, traced = Phase(), Phase()
        tracer = tracing.Tracer() if trace else None
        started = time.perf_counter()
        with tracing.GcMonitor() as gc_monitor:
            while (
                len(phase.pass_seconds) < profile.min_passes
                or time.perf_counter() - started < seconds
            ):
                timed_pass(phase, invoke, **pass_args)
                if tracer is None:
                    continue
                # Traced passes alternate with untraced ones, so a drift
                # in host speed does not read as tracing overhead. On
                # the pool the wrappers go in after the workers started,
                # so they time only the owner.
                tracing.install_layer_spans(tracer)
                try:
                    timed_pass(
                        traced, session.invoke(workload.single), tracer=tracer,
                        gc_monitor=gc_monitor, **pass_args,
                    )
                finally:
                    tracer.uninstall()
        if tracer is None:
            pss = sum(tracing.pss_bytes(pid) for pid in [os.getpid(), *worker_pids])
            metrics = _end_to_end(
                phase, call_sizes, setup_seconds, reference.accuracy, pss
            )
            phases = [phase]
        else:
            metrics = _per_layer(
                phase, traced, tracer, gc_monitor, workload,
                reference.properties, session.annotator.batch_size,
                stage_seconds,
            )
            phases = [phase, traced]
    finally:
        if session is not None:
            session.close()

    untraced = phases[0]
    _, tail_percentile = tail_latency(document_latencies(untraced, call_sizes))
    unscaled = document_latencies(untraced, call_sizes, scaled=False)
    raw_tail, raw_percentile = tail_latency(untraced.latencies)
    details = {
        "pass_seconds": [measured.pass_seconds for measured in phases],
        "docs_per_pass": len(documents),
        "calls_per_pass": len(calls),
        "latency": {
            "passes": len(untraced.pass_seconds),
            "tail_percentile": tail_percentile,
            "raw_calls": len(untraced.latencies),
            "raw_tail_ms": 1e3 * raw_tail,
            "raw_tail_percentile": raw_percentile,
        },
        "setup_runs": len(setup_seconds),
        "host": {
            "reference_probe_ms": tracing.REFERENCE_PROBE_MS,
            "pass_factors": [measured.host_factors for measured in phases],
        },
        "unscaled": {
            "setup_s": statistics.median(raw_setup_seconds),
            "docs_per_s": len(documents) * len(untraced.pass_seconds)
            / sum(untraced.pass_seconds),
            "latency_p50_ms": 1e3 * statistics.median(unscaled),
            "latency_tail_ms": 1e3 * tail_latency(unscaled)[0],
        },
        "failed_reference_calls": sorted(reference.bad_calls),
        "output_digest": reference.digest,
        "input": reference.properties,
    }
    return Outcome(
        metrics,
        sum(measured.attempted for measured in phases),
        sum(measured.failed for measured in phases),
        details,
        tracer,
    )


@dataclasses.dataclass
class Reference:
    """The reference pass: outputs, checks, accuracy and input facts."""

    outputs: list
    bad_calls: set[int]
    accuracy: dict[str, float]
    digest: str
    properties: dict


def _reference_pass(
    session: Session,
    workload: Workload,
    name: str,
    prepared: Prepared,
    documents: list[Document],
    calls: list,
    batched_calls: list,
    call_size: int,
    l2_bytes: int | None,
) -> Reference:
    """Annotate every call once and run the workload's checks on it."""
    invoke = session.invoke(workload.single)
    bad_calls: set[int] = set()
    outputs = []
    for index, call in enumerate(calls):
        try:
            outputs.append(invoke(call))
        except Exception:  # counted as a failed call
            traceback.print_exc(file=sys.stderr)
            outputs.append([[]] if workload.single else [[] for _ in call])
            bad_calls.add(index)

    properties, escalated_docs = input_properties(
        session.annotator, session.counts, documents, call_size, l2_bytes
    )
    serial = session.annotator
    if workload.workers:
        serial_outputs = [serial.annotate_batch(call) for call in calls]
        bad_calls.update(checks.identical_calls(outputs, serial_outputs))
    if workload.cascade:
        full = BootlegAnnotator(
            serial.model, serial.vocab, serial.candidate_map, serial.kb,
            kgs=serial.kgs, num_candidates=serial.num_candidates,
            batch_size=serial.batch_size,
        )
        bad_calls.update(
            checks.escalated_identity(
                outputs,
                escalated_docs,
                lambda c, docs: full.annotate_batch([calls[c][i] for i in docs]),
            )
        )
    if workload.single:
        batched = [doc for call in batched_calls for doc in serial.annotate_batch(call)]
        bad_calls.update(checks.single_matches_batched(outputs, batched))
    bad_calls.update(_cross_run_mismatches(prepared, name, calls, outputs))
    accuracy = checks.span_f1(
        outputs, [document.gold for document in documents], session.counts.bucket_of
    )
    return Reference(
        outputs, bad_calls, accuracy, checks.entity_digest(outputs), properties
    )


def _cross_run_mismatches(
    prepared: Prepared, name: str, calls: list, outputs: list
) -> list[int]:
    """Calls whose (span, entity id) digest differs from an earlier run's.

    The first run of a workload on given inputs records one digest per
    call with the preparation; later runs must reproduce them.
    """
    digests = [checks.entity_digest([output]) for output in outputs]
    inputs = hashlib.sha256(repr(calls).encode()).hexdigest()[:16]
    path = prepared.directory / "digests" / f"{name}-{inputs}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        staging.write_text(json.dumps(digests))
        staging.replace(path)
        return []
    recorded = json.loads(path.read_text())
    if len(recorded) != len(digests):
        return list(range(len(digests)))
    return [i for i, (a, b) in enumerate(zip(digests, recorded)) if a != b]


def _end_to_end(
    phase: Phase,
    call_sizes: list[int],
    setup_seconds: list[float],
    accuracy: dict[str, float],
    pss: int,
) -> dict[str, float]:
    latencies = document_latencies(phase, call_sizes)
    tail, _ = tail_latency(latencies)
    scaled_seconds = sum(
        seconds / factor for seconds, factor in zip(phase.pass_seconds, phase.host_factors)
    )
    return {
        "setup_s": statistics.median(setup_seconds),
        "docs_per_s": sum(call_sizes) * len(phase.pass_seconds) / scaled_seconds,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        **accuracy,
        "pss_mb": pss / 2**20,
    }


def _per_layer(
    plain: Phase,
    traced: Phase,
    tracer: tracing.Tracer,
    gc_monitor: tracing.GcMonitor,
    workload: Workload,
    properties: dict,
    batch_size: int,
    stage_seconds: dict[str, list[float]],
) -> dict[str, float]:
    passes = len(traced.pass_seconds)
    wall = sum(traced.pass_seconds)
    counts = tracer.counts
    metrics = {
        metric: tracer.self_seconds.get(span, 0.0) / passes
        for span, metric in SELF_TIME_METRICS.items()
    }
    batches = counts.get("model.batches", 0.0)
    metrics.update(
        {
            "detect.mentions": counts.get("detect.mentions", 0.0) / passes,
            "tier0.escalated_frac": properties["tier0_escalated_frac"],
            "tier0.escalated_docs_frac": properties["tier0_escalated_docs_frac"],
            "model.batches": batches / passes,
            "model.batch_fill": (
                counts.get("model.sentences", 0.0) / (batches * batch_size)
                if batches
                else 0.0
            ),
            "kg_adjacency.calls": counts.get("kg_adjacency.calls", 0.0) / passes,
            "store.rows": counts.get("store.rows", 0.0) / passes,
            "pool.owner_cpu_frac": traced.owner_cpu_seconds / wall,
            "pool.worker_cpu_frac": (
                traced.worker_cpu_seconds / (workload.workers * wall)
                if workload.workers
                else 0.0
            ),
            "pool.wait_s": (wall - traced.owner_cpu_seconds) / passes,
            "gc.pause_s": gc_monitor.pause_seconds / passes,
            "gc.gen2_collections": gc_monitor.gen2_collections / passes,
            "trace.overhead_frac": statistics.median(traced.pass_seconds)
            / statistics.median(plain.pass_seconds)
            - 1.0,
            "trace.unattributed_frac": 1.0
            - sum(tracer.self_seconds.values()) / wall,
        }
    )
    for stage in SETUP_STAGES:
        metrics[f"setup.{stage}_s"] = statistics.median(stage_seconds[stage])
    return metrics
