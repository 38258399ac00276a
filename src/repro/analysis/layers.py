"""Declarative layering contract for the whole-program pass.

This module is *data*, not analysis: it states which ``repro``
subsystems may depend on which, which external modules are confined to
a single subsystem, which modules legitimately own process-local
mutable state, and where the fork boundary's entrypoints live. The
enforcement lives in :mod:`repro.analysis.project`; editing the
architecture means editing this file, in review, rather than silently
growing a new edge.

Contract pieces
---------------
``FORBIDDEN_EDGES``
    Prefix-matched import bans (RA610). An importer prefix may not
    import a target prefix, with per-module exceptions listed in
    ``ALLOWED_EDGES`` (each carrying a justification).

``CONFINED_IMPORTS``
    External modules that only one subsystem may import (RA613). These
    are the whole-program form of the per-file RA601/RA602 rules:
    process fan-out lives in ``repro.parallel``, memory mapping in
    ``repro.store``.

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
            "repro.nn", "repro.kb", "repro.corpus", "repro.text",
            "repro.eval", "repro.store", "repro.baselines",
            "repro.downstream", "repro.weaklabel", "repro.obs",
            "repro.utils", "repro.errors", "repro.cascade",
        ),
        targets=("repro.parallel",),
        reason="process fan-out sits above the model/data layers; only "
        "repro.core (deferred prefetch wiring) and the CLI may drive it",
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

# Sanctioned module-to-module exceptions to FORBIDDEN_EDGES. Keys are
# (importer module, imported module); values are the justification that
# a reviewer signed off on.
ALLOWED_EDGES: dict[tuple[str, str], str] = {
    ("repro.core.trainer", "repro.parallel.prefetch"): (
        "deferred (function-level) import: the trainer optionally "
        "prefetches batches; the import only runs when --prefetch is on"
    ),
}

# External modules confined to one subsystem (RA613). The per-file
# RA601/RA602 rules catch the same thing file-locally; expressing them
# here too makes the confinement part of the one reviewed contract.
CONFINED_IMPORTS: dict[str, tuple[str, ...]] = {
    "multiprocessing": ("repro.parallel",),
    "numpy.lib.format": ("repro.store",),
    "mmap": ("repro.store",),
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


def edge_violation(importer: str, imported: str) -> ForbiddenEdge | None:
    """Return the violated contract edge for ``importer -> imported``."""
    allowed = ALLOWED_EDGES.get((importer, imported))
    if allowed is not None:
        return None
    for edge in FORBIDDEN_EDGES:
        if any(
            importer == p or importer.startswith(p + ".")
            for p in edge.importers
        ) and any(
            imported == t or imported.startswith(t + ".")
            for t in edge.targets
        ):
            return edge
    return None


def confinement_violation(importer: str, external: str) -> tuple[str, ...] | None:
    """Return the allowed homes if ``importer`` may not import ``external``."""
    for confined, homes in CONFINED_IMPORTS.items():
        if external == confined or external.startswith(confined + "."):
            if not any(
                importer == h or importer.startswith(h + ".") for h in homes
            ):
                return homes
    return None


def owns_worker_state(module: str) -> bool:
    return any(
        module == owner or module.startswith(owner + ".")
        for owner in WORKER_STATE_OWNERS
    )
