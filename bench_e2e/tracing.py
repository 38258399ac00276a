"""Spans around calls into each layer's public functions, from outside.

The traced run patches each public callable where its caller looks it
up (a module attribute such as ``repro.core.annotator.tokenize``, or a
method on its class) with a wrapper that records a span: name, start,
end, parent span and the id of the benchmark call it belongs to. Spans
stay in memory and are written out when the run ends. A span's self
time is its duration minus the time its child spans cover; the program
itself carries no spans, and ``repro.obs`` stays off.

This module also reads the counters the runs need from the interpreter
and the OS: garbage-collection pauses, per-process CPU time and
proportional set size from ``/proc``, and a probe of the host's speed.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent span id or -1, call id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object | None]] = []

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        observe: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``observe(args, result)`` runs after the call, outside the
        span, to update counters.
        """
        original = getattr(owner, attribute)
        # A method inherited from a base class is deleted on uninstall
        # rather than copied onto the subclass.
        own = not isinstance(owner, type) or attribute in vars(owner)
        stack = self._stack
        spans = self.spans
        self_seconds = self.self_seconds
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_seconds[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent, self.call_id))
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original if own else None))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start", "end", "parent", "call"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public call into each layer of the annotation path.

    Names are looked up where their callers find them, so the spans
    nest as the calls do: ``annotator`` (``annotate_batch``) holds
    ``tokenize``, ``detect``, ``tier0`` and ``encode`` (``NedDataset``
    construction, holding ``candidates`` and ``kg_adjacency``) and
    ``decode`` (``predict_batches``), which holds ``collate`` and the
    model: ``scoring`` (``BootlegModel.forward`` and ``.predictions``)
    around ``encoder``, ``payload`` (with ``store``), ``phrase2ent``,
    ``ent2ent`` and ``kg2ent``. ``pool`` is the owner side of
    ``AnnotatorPool.annotate_batch``.
    """
    import repro.core.annotator as annotator_module
    from repro.cascade.tier0 import Tier0Linker
    from repro.core.embeddings import EntityEmbedder
    from repro.core.model import BootlegModel
    from repro.core.modules import Ent2Ent, KG2Ent, Phrase2Ent
    from repro.corpus.dataset import NedDataset
    from repro.kb.aliases import CandidateMap
    from repro.kb.knowledge_graph import KnowledgeGraph
    from repro.parallel.pool import AnnotatorPool
    from repro.store.base import EntityPayloadStore
    from repro.text.encoder import MiniBert

    counts = tracer.counts

    def count_mentions(args, result) -> None:
        counts["detect.mentions"] += len(result)

    def count_adjacency(args, result) -> None:
        counts["kg_adjacency.calls"] += 1

    def count_rows(args, result) -> None:
        counts["store.rows"] += result.size // max(1, result.shape[-1])

    def count_batch(args, result) -> None:
        counts["model.batches"] += 1
        counts["model.sentences"] += args[1].size

    tracer.wrap(annotator_module, "tokenize", "tokenize")
    tracer.wrap(annotator_module.BootlegAnnotator, "detect_mentions", "detect", count_mentions)
    tracer.wrap(Tier0Linker, "resolve", "tier0")
    tracer.wrap(NedDataset, "__init__", "encode")
    tracer.wrap(NedDataset, "collate", "collate")
    tracer.wrap(CandidateMap, "candidate_arrays", "candidates")
    tracer.wrap(KnowledgeGraph, "candidate_adjacency", "kg_adjacency", count_adjacency)
    tracer.wrap(MiniBert, "forward", "encoder")
    tracer.wrap(EntityEmbedder, "forward_cached", "payload")
    tracer.wrap(EntityPayloadStore, "gather", "store", count_rows)
    tracer.wrap(EntityPayloadStore, "gather_entity_part", "store", count_rows)
    tracer.wrap(Phrase2Ent, "forward", "phrase2ent")
    tracer.wrap(Ent2Ent, "forward", "ent2ent")
    tracer.wrap(KG2Ent, "forward", "kg2ent")
    tracer.wrap(BootlegModel, "forward", "scoring", count_batch)
    tracer.wrap(BootlegModel, "predictions", "scoring")
    tracer.wrap(annotator_module, "predict_batches", "decode")
    tracer.wrap(annotator_module.BootlegAnnotator, "annotate_batch", "annotator")
    tracer.wrap(AnnotatorPool, "annotate_batch", "pool")


class GcMonitor:
    """Collector pause time and full collections while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.pause_seconds = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        if not self.active:
            return
        self.pause_seconds += time.perf_counter() - self._started
        if info.get("generation") == 2:
            self.gen2_collections += 1


# The host speed the end-to-end times are scaled to: the one at which
# the probe loop of :func:`host_probe_ms` takes this long.
REFERENCE_PROBE_MS = 1.0


def host_probe_ms(repeats: int = 5) -> float:
    """Median CPU time of a fixed pure-Python loop, in milliseconds.

    The loop runs no package code, so it tracks only how fast the host
    runs this process at the moment: on a shared host the same loop
    takes up to half again as long for minutes while neighbours are
    busy, and the benchmark's own work slows with it. It is timed in
    this thread's CPU time, so waiting for the interpreter lock or for
    a core held by the benchmark's own threads or pool workers does
    not count as a slow host.
    """
    times = []
    for _ in range(repeats):
        start = time.thread_time()
        total = 0
        for value in range(20000):
            total += value * value
        times.append(time.thread_time() - start)
    return 1e3 * statistics.median(times)


def host_factor(before_ms: float, after_ms: float) -> float:
    """How much slower than the reference the host ran between two probes."""
    return (before_ms + after_ms) / (2 * REFERENCE_PROBE_MS)


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state).
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def pss_bytes(pid: int) -> int:
    """Proportional set size of ``pid`` from ``/proc/<pid>/smaps_rollup``."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no Pss line for pid {pid}")
