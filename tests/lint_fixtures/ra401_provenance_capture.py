"""Lint fixture: RA401 on decision-provenance capture."""

import repro.obs as obs
from repro.obs import provenance


def unguarded_capture(sentence_id):
    provenance.record_decision(sentence_id, 0, surface="x")


def unguarded_alias_capture(sentence_id):
    provenance.record_prediction(sentence_id, 0, tier="model")


def guarded_capture(sentence_id):
    capturing = obs.enabled and provenance.active
    if capturing:
        provenance.record_decision(sentence_id, 0, surface="x")
