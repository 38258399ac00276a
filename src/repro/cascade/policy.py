"""Confidence/abstention policy for the tiered inference cascade.

This module is the **one** place in the tree where confidence-threshold
defaults live: every margin / prior-mass number the cascade compares
against is a field default here. Thresholds reach tier 0 only as a
validated :class:`CascadePolicy` — the annotator, :class:`Tier0Linker`
and the pool accept nothing else, and the CLI reads its flag defaults
from ``CascadePolicy()`` — so no caller can re-hardcode them.

Semantics (see docs/CASCADE.md):

- ``prior_mass`` — minimum *normalized* popularity prior
  ``P(top entity | alias)`` (normalized over the alias's full candidate
  bucket, like :meth:`repro.kb.aliases.CandidateMap.prior`) for tier 0
  to answer.
- ``margin`` — minimum normalized prior gap between the best and the
  runner-up candidate. A single-candidate alias has margin 1.0; an
  exact prior tie has margin 0.0 and always escalates under any
  positive threshold.
- ``type_filter`` — conservative veto: even a confident top candidate
  escalates when its coarse entity type disagrees with the alias's
  prior-mass-dominant coarse type (the "type filter" of Strong
  Heuristics for Named Entity Linking).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError

# Tier labels carried on predictions/annotations and in RunReport slice
# attributions. Values stay within the metric-key-safe alphabet so they
# can double as metric label values (lint rule RA403).
TIER_HEURISTIC = "tier0"
TIER_MODEL = "model"

# Machine-readable decision reasons carried on Tier0Decision, emitted as
# ``cascade.escalated{reason=…}`` counter labels, and recorded in
# provenance DecisionRecords (docs/CASCADE.md). Like the tier labels,
# every value stays inside the metric-key-safe alphabet (RA403).
REASON_CONFIDENT = "confident"
REASON_UNKNOWN_ALIAS = "unknown-alias"
REASON_ZERO_PRIOR_MASS = "zero-prior-mass"
REASON_MARGIN_TOO_SMALL = "margin-too-small"
REASON_PRIOR_MASS_TOO_SMALL = "prior-mass-too-small"
REASON_TYPE_VETO = "type-veto"

#: Every reason a Tier0Decision can carry, answered and escalating alike.
DECISION_REASONS = (
    REASON_CONFIDENT,
    REASON_UNKNOWN_ALIAS,
    REASON_ZERO_PRIOR_MASS,
    REASON_MARGIN_TOO_SMALL,
    REASON_PRIOR_MASS_TOO_SMALL,
    REASON_TYPE_VETO,
)


@dataclasses.dataclass(frozen=True)
class CascadePolicy:
    """Knobs of the tier-0 answer/abstain decision.

    Frozen and picklable: the policy travels inside
    :class:`repro.parallel.pool.WorkerSpec` to pool workers unchanged.
    """

    margin: float = 0.35
    prior_mass: float = 0.65
    type_filter: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.margin <= 1.0:
            raise ConfigError(
                f"cascade margin must be within [0, 1], got {self.margin}"
            )
        if not 0.0 <= self.prior_mass <= 1.0:
            raise ConfigError(
                "cascade prior_mass must be within [0, 1], got "
                f"{self.prior_mass}"
            )
