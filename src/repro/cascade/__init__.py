"""Tiered heuristic→model inference cascade (docs/CASCADE.md).

Head mentions are overwhelmingly resolvable by alias popularity alone;
the model earns its cost on the tail. This package is the policy and
the linker: :class:`Tier0Linker` answers high-confidence mentions from
the candidate map's prior in microseconds and abstains by a
configurable :class:`CascadePolicy`. ``BootlegAnnotator`` runs the one
decision path over it, shared by annotate and evaluate: tier 0 sees
the mentions the encoder keeps (those ending within its token window),
and only the sentences with an abstention are batched into the model.
"""

from repro.cascade.policy import (
    DECISION_REASONS,
    REASON_CONFIDENT,
    REASON_MARGIN_TOO_SMALL,
    REASON_PRIOR_MASS_TOO_SMALL,
    REASON_TYPE_VETO,
    REASON_UNKNOWN_ALIAS,
    REASON_ZERO_PRIOR_MASS,
    TIER_HEURISTIC,
    TIER_MODEL,
    CascadePolicy,
)
from repro.cascade.tier0 import (
    Tier0Decision,
    Tier0Linker,
    reason_counts,
    record_cascade_metrics,
)

__all__ = [
    "DECISION_REASONS",
    "REASON_CONFIDENT",
    "REASON_MARGIN_TOO_SMALL",
    "REASON_PRIOR_MASS_TOO_SMALL",
    "REASON_TYPE_VETO",
    "REASON_UNKNOWN_ALIAS",
    "REASON_ZERO_PRIOR_MASS",
    "TIER_HEURISTIC",
    "TIER_MODEL",
    "CascadePolicy",
    "Tier0Decision",
    "Tier0Linker",
    "reason_counts",
    "record_cascade_metrics",
]
