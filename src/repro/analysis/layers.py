"""Declarative layering contract for the whole-program pass.

This module is *data*, not analysis: it states which ``repro``
subsystems may depend on which, which names are confined to their home
packages, which modules legitimately own process-local mutable state,
and where the fork boundary's entrypoints live. The
enforcement lives in :mod:`repro.analysis.project`; editing the
architecture means editing this file, in review, rather than silently
growing a new edge.

Contract pieces
---------------
``FORBIDDEN_EDGES``
    Prefix-matched import bans (RA610). An importer prefix may not
    import a target prefix; there are no per-module exceptions.

``CONFINED``
    Dotted names that only their home packages may use (RA613): process
    fan-out lives in ``repro.parallel``, memory mapping in
    ``repro.store``, and the decision-record schema in ``repro.obs``.
    A name covers everything under it (``multiprocessing`` covers
    ``multiprocessing.shared_memory``).

``WORKER_STATE_OWNERS``
    Modules whose module-level mutable state is *by design* process
    local (documented in docs/PARALLEL.md): the obs switchboard and the
    dtype policy. RA803 exempts them; everything else reachable from a
    worker entrypoint must not write module globals.

``WORKER_ENTRYPOINTS`` / ``PREFORK_ENTRYPOINTS``
    Call-graph roots for the RA80x reachability rules: code reachable
    from a worker entrypoint runs inside a forked child; code reachable
    from a pre-fork entrypoint runs in the owner between pool creation
    and ``Process.start()``.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ForbiddenEdge:
    """Importers matching any ``importers`` prefix may not import
    modules matching any ``targets`` prefix."""

    importers: tuple[str, ...]
    targets: tuple[str, ...]
    reason: str


# Layer sketch (low to high); informational — the enforced contract is
# the edge list below, which bans the dependencies that would invert it:
#
#   errors, utils                      (leaf helpers)
#   nn                                 (autograd + modules)
#   kb, corpus, text, store            (data + payload planes)
#   cascade                            (tier-0 policy + linker over kb)
#   core, baselines, eval, weaklabel   (models, training, scoring)
#   downstream, obs, analysis          (consumers + tooling)
#   parallel                           (process fan-out over core)
#   cli                                (composition root)
FORBIDDEN_EDGES: tuple[ForbiddenEdge, ...] = (
    ForbiddenEdge(
        importers=(
            "repro.nn", "repro.core", "repro.kb", "repro.corpus",
            "repro.text", "repro.eval", "repro.store", "repro.baselines",
            "repro.downstream", "repro.weaklabel", "repro.obs",
            "repro.parallel", "repro.analysis", "repro.utils",
            "repro.errors", "repro.cascade",
        ),
        targets=("repro.cli", "repro.__main__"),
        reason="the CLI is the composition root; importing it from a "
        "library module drags argparse wiring and the live telemetry "
        "plane into every consumer",
    ),
    ForbiddenEdge(
        importers=(
            "repro.nn", "repro.core", "repro.kb", "repro.corpus",
            "repro.text", "repro.eval", "repro.store", "repro.baselines",
            "repro.downstream", "repro.weaklabel", "repro.obs",
            "repro.utils", "repro.errors", "repro.cascade",
        ),
        targets=("repro.parallel",),
        reason="process fan-out sits above the model/data layers; only "
        "the CLI may drive it",
    ),
    ForbiddenEdge(
        importers=("repro.cascade",),
        targets=("repro.core",),
        reason="the cascade is policy plus tier-0 linker beneath the "
        "model; repro.core's annotator runs it, so an import back "
        "would cycle",
    ),
    ForbiddenEdge(
        importers=(
            "repro.nn", "repro.core", "repro.kb", "repro.corpus",
            "repro.text", "repro.eval", "repro.store", "repro.baselines",
            "repro.downstream", "repro.weaklabel", "repro.utils",
            "repro.errors", "repro.cascade",
        ),
        targets=("repro.obs.exporter", "repro.obs.sampler", "repro.obs.flight"),
        reason="the live telemetry plane owns threads, sockets and "
        "signal handlers; model/data code may only use the passive "
        "repro.obs recording API",
    ),
)

# Dotted names confined to their home packages (RA613). A use is an
# import, a from-import (checked as ``base.symbol``), or an attribute
# chain that resolves to the name through an import alias
# (``np.memmap`` after ``import numpy as np``).
CONFINED: dict[str, tuple[str, ...]] = {
    # Pool lifecycle, shared-memory cleanup and crash recovery.
    "multiprocessing": ("repro.parallel",),
    # Shard attachment, the LRU memory budget and manifest validation.
    "mmap": ("repro.store",),
    "numpy.lib.format": ("repro.store",),
    "numpy.memmap": ("repro.store",),
    # One owner for the audit schema; capture goes through
    # provenance.record_decision.
    "repro.obs.provenance.DecisionRecord": ("repro.obs",),
}

# Modules whose module-level mutable state is documented process-local
# state (reset per worker in _worker_main); RA803 exempts them.
WORKER_STATE_OWNERS: tuple[str, ...] = (
    "repro.obs",
    "repro.nn.tensor",
)

# Function names that are worker-process entrypoints (run post-fork in
# the child). Matched against the unqualified function name.
WORKER_ENTRYPOINTS: tuple[str, ...] = ("_worker_main",)

# Qualified ``Class.method`` names that run in the owner process
# between pool construction and Process.start() — the window where a
# started thread would be inherited mid-state by fork.
PREFORK_ENTRYPOINTS: tuple[str, ...] = (
    "AnnotatorPool._build_spec",
    "AnnotatorPool._spawn_worker",
)

# Public top-level symbols that RA612 must not flag even when no other
# module imports them: entry points and API kept for external callers.
PUBLIC_API_ALLOW: frozenset[str] = frozenset(
    {
        "main",  # console entry point, invoked by __main__/setuptools
    }
)


def _under(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def edge_violation(importer: str, imported: str) -> ForbiddenEdge | None:
    """Return the violated contract edge for ``importer -> imported``."""
    for edge in FORBIDDEN_EDGES:
        if _under(importer, edge.importers) and _under(imported, edge.targets):
            return edge
    return None


def confined_homes(name: str) -> tuple[str, ...] | None:
    """Home packages of the ``CONFINED`` entry covering ``name``."""
    for confined, homes in CONFINED.items():
        if _under(name, (confined,)):
            return homes
    return None


def confinement_violation(user: str, name: str) -> tuple[str, ...] | None:
    """Return the home packages if module ``user`` may not use ``name``."""
    homes = confined_homes(name)
    if homes is None or _under(user, homes):
        return None
    return homes


def owns_worker_state(module: str) -> bool:
    return _under(module, WORKER_STATE_OWNERS)
