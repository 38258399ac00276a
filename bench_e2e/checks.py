"""Output digests, accuracy and the benchmark's correctness checks.

Each check takes outputs as the annotation API returns them (one list
of ``AnnotatedMention`` per document) and returns the indices of the
calls that failed it, so a failure is counted against the calls it
concerns. The self-tests feed each check a perturbed output and expect
it to fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections.abc import Callable, Sequence

from repro.cascade import TIER_MODEL
from repro.eval.metrics import prf_from_counts

# Batch shape changes BLAS blocking, so a document annotated alone may
# differ from the same document in a packed batch by a few ulps per
# score; entity ids must still match exactly.
SCORE_REL_TOL = 1e-9


def call_bytes(call_output) -> bytes:
    """Canonical bytes of one call's output (``dataclasses.asdict``).

    ``repr`` of a float is its shortest round-tripping form, so equal
    bytes mean bit-identical scores.
    """
    return repr(
        [[dataclasses.asdict(m) for m in doc] for doc in call_output]
    ).encode()


def entity_digest(outputs: Sequence) -> str:
    """Digest of (document, span, entity id) over every call, in order."""
    digest = hashlib.sha256()
    doc_index = 0
    for call_output in outputs:
        for doc in call_output:
            for m in doc:
                digest.update(f"{doc_index}:{m.start}:{m.end}:{m.entity_id};".encode())
            doc_index += 1
    return digest.hexdigest()


def identical_calls(observed: Sequence, reference: Sequence) -> list[int]:
    """Calls whose output bytes differ (pool ≡ serial)."""
    return [
        index
        for index, (got, want) in enumerate(zip(observed, reference, strict=True))
        if call_bytes(got) != call_bytes(want)
    ]


def escalated_identity(
    cascade_outputs: Sequence,
    escalated_docs: Sequence[Sequence[int]],
    full_pass: Callable[[int, list[int]], list],
) -> list[int]:
    """Calls whose escalated mentions differ from a standalone full pass.

    ``escalated_docs[c]`` lists the documents of call ``c`` with at
    least one mention tier 0 abstained on; ``full_pass(c, docs)`` runs
    the full model over exactly those documents, in order, which is the
    batch composition the cascade used. Every model-tier mention must be
    byte-identical to its twin, and only escalated documents may carry
    model-tier mentions.
    """
    failed = []
    for call, (output, docs) in enumerate(
        zip(cascade_outputs, escalated_docs, strict=True)
    ):
        escalated = set(docs)
        twins = dict(zip(docs, full_pass(call, list(docs)) if docs else []))
        for doc_index, doc in enumerate(output):
            model_tier = [m for m in doc if m.tier == TIER_MODEL]
            if not model_tier:
                continue
            if doc_index not in escalated:
                failed.append(call)
                break
            by_span = {(t.start, t.end): t for t in twins[doc_index]}
            if any(
                (m.start, m.end) not in by_span
                or dataclasses.asdict(m) != dataclasses.asdict(by_span[(m.start, m.end)])
                for m in model_tier
            ):
                failed.append(call)
                break
    return failed


def single_matches_batched(
    single_outputs: Sequence, batched_docs: Sequence
) -> list[int]:
    """Single-document calls whose ids differ from the batched run's.

    ``single_outputs[i]`` is call ``i``'s output (one document);
    ``batched_docs[i]`` is the same document's annotation from a
    batched call. Spans, tiers and entity ids must match exactly, and
    scores within :data:`SCORE_REL_TOL`; the one exception is a top-two
    tie within that tolerance, which an ulp may break either way.
    """
    failed = []
    for index, (call_output, twin) in enumerate(
        zip(single_outputs, batched_docs, strict=True)
    ):
        (doc,) = call_output
        if not _same_ids_close_scores(doc, twin):
            failed.append(index)
    return failed


def _same_ids_close_scores(doc, twin) -> bool:
    if len(doc) != len(twin):
        return False
    for a, b in zip(doc, twin):
        if (a.start, a.end, a.tier) != (b.start, b.end, b.tier):
            return False
        # Candidates whose scores differ by ulps may swap places in the
        # ranked list, so they are matched by title.
        a_scores, b_scores = dict(a.candidates), dict(b.candidates)
        if a_scores.keys() != b_scores.keys():
            return False
        pairs = [(a.score, b.score)] + [(a_scores[t], b_scores[t]) for t in a_scores]
        if not all(math.isclose(x, y, rel_tol=SCORE_REL_TOL) for x, y in pairs):
            return False
        # The entity must match unless the two top candidates tie within
        # the same tolerance, where an ulp decides the argmax.
        if a.entity_id != b.entity_id and (
            a.entity_title == b.entity_title
            or b.entity_title not in a_scores
            or not math.isclose(
                a_scores[a.entity_title], a_scores[b.entity_title], rel_tol=SCORE_REL_TOL
            )
        ):
            return False
    return True


def span_f1(
    outputs: Sequence,
    gold: Sequence[Sequence[tuple[int, int, int]]],
    bucket_of: Callable[[int], str],
) -> dict[str, float]:
    """Span-level micro F1 overall and on the tail / unseen gold slices.

    A prediction is (document, span, entity). On a slice, the gold set
    is the slice's gold mentions and the predicted set is the
    predictions made at those mentions' spans.
    """
    predicted: dict[tuple[int, int, int], int] = {}
    doc_index = 0
    for call_output in outputs:
        for doc in call_output:
            for m in doc:
                predicted[(doc_index, m.start, m.end)] = m.entity_id
            doc_index += 1
    gold_spans = {
        (doc, start, end): entity
        for doc, mentions in enumerate(gold)
        for start, end, entity in mentions
    }
    if doc_index != len(gold):
        raise ValueError(f"{doc_index} annotated documents for {len(gold)} gold")

    def f1(spans) -> float:
        spans = list(spans)
        hits = [span for span in spans if span in predicted]
        correct = sum(1 for span in hits if predicted[span] == gold_spans[span])
        return prf_from_counts(correct, len(hits), len(spans)).f1

    correct = sum(
        1 for span, entity in predicted.items() if gold_spans.get(span) == entity
    )
    scores = {"f1": prf_from_counts(correct, len(predicted), len(gold_spans)).f1}
    for bucket in ("tail", "unseen"):
        scores[f"{bucket}_f1"] = f1(
            span for span, entity in gold_spans.items() if bucket_of(entity) == bucket
        )
    return scores
