"""Parallel execution layer: worker pools over shared payloads.

This package is the repo's one blessed path to process-level
parallelism (lint rule RA613 flags ``multiprocessing`` uses anywhere
else). Two pillars:

- :mod:`repro.parallel.shm` — pack frozen model parameters and the
  static entity-payload cache into one shared-memory block so N workers
  share one copy;
- :mod:`repro.parallel.pool` — a persistent :class:`AnnotatorPool` of
  worker processes that runs an annotator's batch plan
  (``annotate_batch``, ``predict_sentences``) with ordered reassembly,
  crash-respawn-retry, and a transparent serial fallback.

See ``docs/PARALLEL.md`` for architecture, determinism contract, and
the fork-vs-spawn caveats.
"""

from repro.errors import ParallelError
from repro.parallel.pool import (
    AnnotatorPool,
    WorkerSpec,
    default_start_method,
)
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
    "SharedArrayStore",
    "ShmEntry",
    "ShmManifest",
    "WorkerSpec",
    "default_start_method",
    "shared_memory_available",
]
