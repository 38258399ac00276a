"""Tier-0 heuristic linker: alias prior + type filter in microseconds.

The tier-0 linker answers a mention without touching the model: one
binary search into :class:`~repro.kb.aliases.CandidateMap`'s flat index
yields the alias's candidates already ranked by popularity prior, and
the :class:`~repro.cascade.policy.CascadePolicy` decides whether the
top candidate is confident enough to stand. Everything else escalates
to the full model (see ``BootlegAnnotator``).

Decisions are cached per normalized surface form — a corpus mentions
the same aliases over and over, so the steady-state cost of a confident
mention is one dict probe. The cache snapshots the candidate map at
first lookup; rebuild the linker after mutating Γ (the same contract as
``BootlegAnnotator.refresh_alias_index``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

import repro.obs as obs
from repro.cascade.policy import (
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
from repro.kb.aliases import CandidateMap, normalize_alias
from repro.kb.knowledge_base import KnowledgeBase


@dataclasses.dataclass(frozen=True)
class Tier0Decision:
    """Outcome of the heuristic pass for one surface form.

    ``answered`` means tier 0 resolved the mention (including the
    "nothing to link" case: an unknown alias is answered with
    ``entity_id == -1``, since escalating a mention with zero
    candidates buys nothing — the model path yields no prediction for
    it either). ``candidate_ids``/``candidate_scores`` hold the top-K
    candidates with priors normalized over the alias's full bucket.
    ``reason`` is the machine-readable outcome of the decision sites
    (one of :data:`repro.cascade.policy.DECISION_REASONS`): why tier 0
    answered, or why it abstained — indistinguishable downstream before
    this field existed.
    """

    answered: bool
    entity_id: int
    confidence: float
    margin: float
    candidate_ids: np.ndarray
    candidate_scores: np.ndarray
    reason: str = REASON_CONFIDENT

    @property
    def tier(self) -> str:
        return TIER_HEURISTIC if self.answered else TIER_MODEL


def reason_counts(decisions_per_sentence) -> dict[str, int]:
    """Tally decision reasons for ``record_cascade_metrics``, given the
    :class:`Tier0Decision` lists of a batch of sentences."""
    counts: dict[str, int] = {}
    for decisions in decisions_per_sentence:
        for decision in decisions:
            counts[decision.reason] = counts.get(decision.reason, 0) + 1
    return counts


def record_cascade_metrics(
    answered: int,
    escalated: int,
    seconds: float,
    reasons: dict[str, int] | None = None,
) -> None:
    """Emit the cascade telemetry for one tier-0 pass.

    Emitted once per tier-0 pass of the decision path that annotate
    and evaluate share: ``cascade.tier0_answered`` /
    ``cascade.escalated`` counters and the ``cascade.tier0_seconds``
    histogram. ``reasons`` (a ``reason -> count`` tally from
    :func:`reason_counts`) additionally breaks escalations/abstentions
    down as
    ``cascade.escalated{reason=…}`` labeled counters; answered reasons
    (``confident``/``unknown-alias``) are skipped — they already land in
    the answered total.
    """
    if obs.enabled:
        obs.metrics.counter("cascade.tier0_answered").inc(answered)
        obs.metrics.counter("cascade.escalated").inc(escalated)
        obs.metrics.histogram("cascade.tier0_seconds").observe(seconds)
        for reason, count in (reasons or {}).items():
            if reason in (REASON_CONFIDENT, REASON_UNKNOWN_ALIAS):
                continue
            obs.metrics.counter("cascade.escalated", reason=reason).inc(count)


class Tier0Linker:
    """Cached answer/abstain decisions over a candidate map snapshot."""

    def __init__(
        self,
        candidate_map: CandidateMap,
        policy: CascadePolicy,
        kb: KnowledgeBase | None = None,
        num_candidates: int = 6,
    ) -> None:
        policy.validate()
        self.candidate_map = candidate_map
        self.policy = policy
        self.num_candidates = num_candidates
        # One vectorized coarse-type gather per decision instead of K
        # entity-record lookups; None disables the type veto entirely.
        self._coarse_types = (
            kb.coarse_type_ids()
            if kb is not None and policy.type_filter
            else None
        )
        self._cache: dict[str, Tier0Decision] = {}

    def resolve(self, surface: str) -> Tier0Decision:
        """Answer/abstain decision for one surface form (cached)."""
        key = normalize_alias(surface)
        decision = self._cache.get(key)
        if decision is None:
            decision = self._decide(key)
            self._cache[key] = decision
        return decision

    # ------------------------------------------------------------------
    def _decide(self, alias: str) -> Tier0Decision:
        # Full bucket (no top-k cut): the prior-mass and margin tests
        # normalize over everything the alias can mean, matching
        # CandidateMap.prior(); the stored candidate list is cut to K.
        ids, scores = self.candidate_map.candidate_arrays(alias)
        k = self.num_candidates
        if ids.shape[0] == 0:
            empty = np.zeros(0, dtype=np.int64)
            return Tier0Decision(
                answered=True,
                entity_id=-1,
                confidence=0.0,
                margin=0.0,
                candidate_ids=empty,
                candidate_scores=np.zeros(0, dtype=np.float64),
                reason=REASON_UNKNOWN_ALIAS,
            )
        total = float(scores.sum())
        top_ids = np.array(ids[:k], copy=True)
        if total <= 0.0:
            # Zero prior mass cannot be ranked heuristically; abstain.
            return Tier0Decision(
                answered=False,
                entity_id=int(ids[0]),
                confidence=0.0,
                margin=0.0,
                candidate_ids=top_ids,
                candidate_scores=np.zeros(top_ids.shape[0], dtype=np.float64),
                reason=REASON_ZERO_PRIOR_MASS,
            )
        normalized = np.asarray(scores, dtype=np.float64) / total
        confidence = float(normalized[0])
        runner_up = float(normalized[1]) if normalized.shape[0] > 1 else 0.0
        margin = confidence - runner_up
        answered = (
            margin >= self.policy.margin
            and confidence >= self.policy.prior_mass
        )
        if not answered:
            reason = (
                REASON_MARGIN_TOO_SMALL
                if margin < self.policy.margin
                else REASON_PRIOR_MASS_TOO_SMALL
            )
        else:
            reason = REASON_CONFIDENT
        if answered and self._coarse_types is not None and ids.shape[0] > 1:
            # Type veto: the top candidate must belong to the coarse
            # type holding the alias's largest prior mass; a popularity
            # winner of the "wrong" kind is exactly the overshadowed
            # case the model exists for.
            types = self._coarse_types[ids]
            mass = np.bincount(types, weights=normalized)
            if int(np.argmax(mass)) != int(types[0]):
                answered = False
                reason = REASON_TYPE_VETO
        return Tier0Decision(
            answered=answered,
            entity_id=int(ids[0]),
            confidence=confidence,
            margin=margin,
            candidate_ids=top_ids,
            candidate_scores=np.array(normalized[:k], copy=True),
            reason=reason,
        )
