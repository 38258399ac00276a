"""Parallel execution layer: worker pools, shared payloads, prefetching.

This package is the repo's one blessed path to process-level
parallelism (lint rule RA613 flags ``multiprocessing`` uses anywhere
else). Three pillars:

- :mod:`repro.parallel.shm` — pack frozen model parameters and the
  static entity-payload cache into one shared-memory block so N workers
  share one copy;
- :mod:`repro.parallel.pool` — a persistent :class:`AnnotatorPool` of
  worker processes that runs an annotator's batch plan
  (``annotate_batch``, ``predict_sentences``) with ordered reassembly,
  crash-respawn-retry, and a transparent serial fallback;
- :mod:`repro.parallel.prefetch` — a bounded-queue background producer
  overlapping batch collation with the optimizer step.

See ``docs/PARALLEL.md`` for architecture, determinism contract, and
the fork-vs-spawn caveats.
"""

from repro.errors import ParallelError
from repro.parallel.pool import (
    AnnotatorPool,
    WorkerSpec,
    default_start_method,
)
from repro.parallel.prefetch import PrefetchIterator, prefetch_batches
from repro.parallel.shm import (
    AttachedArrays,
    SharedArrayStore,
    ShmEntry,
    ShmManifest,
    shared_memory_available,
)

__all__ = [
    "AnnotatorPool",
    "AttachedArrays",
    "ParallelError",
    "PrefetchIterator",
    "SharedArrayStore",
    "ShmEntry",
    "ShmManifest",
    "WorkerSpec",
    "default_start_method",
    "prefetch_batches",
    "shared_memory_available",
]
