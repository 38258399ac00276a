"""Per-mention decision provenance: the explainability plane.

Telemetry (metrics + spans) says how many mentions resolved and how
fast; it never says *why* mention 17 in sentence 42 went to entity 5
instead of entity 7. This module captures one :class:`DecisionRecord`
per mention decision — surface form, normalized alias, candidate ids
with prior and model scores, score margin, tier and machine-readable
escalation reason, type-veto outcome, slice memberships and worker
rank — behind the same no-op fast path as every other obs layer: when
``obs.enabled`` is off (or provenance is not activated) the decision
paths pay a single attribute check and nothing else.

The annotator's decision routine is the one capture site: it holds
both tiers' outcomes, so it records each kept mention's whole record
at once. The recorder keeps every record of the run in a map keyed by
``(sentence_id, mention_index)``; re-recording a key replaces the
whole record (a retried pool task, or a repeated ``annotate_batch``
sentence id). Slices are stamped on by the owner after scoring, and
:meth:`ProvenanceRecorder.export_jsonl` writes the audit once, at the
end of the run.

Cross-process semantics follow :mod:`repro.obs.aggregate`: pool workers
capture into their own recorders, and each task's reply carries the
records that task made. The owner stores the shipped rows stamped with
the worker's rank as it reads the reply. A pooled call makes and
records every decision in a worker, tier 0 included; the owner only
attaches slices, once the call has returned with every record in.

Lint rule RA613 confines :class:`DecisionRecord` to ``repro.obs``, and
RA401 keeps every ``record_*`` capture call behind ``obs.enabled``, the
same guard it enforces for metric emission.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Iterable, Iterator

from repro.errors import SerializationError

#: List fields; the decision paths hand some of them over as numpy
#: arrays, normalized to plain lists on capture so records pickle small
#: and dump to JSON.
_SEQUENCE_FIELDS = ("candidate_ids", "prior_scores", "model_scores", "slices")


@dataclasses.dataclass
class DecisionRecord:
    """Everything known about one mention's linking decision.

    Score fields are parallel to ``candidate_ids``: ``prior_scores``
    are the tier-0 normalized popularity priors, ``model_scores`` the
    model's per-candidate scores (empty for mentions tier 0 answered).
    ``margin`` / ``confidence`` belong to whichever tier decided.
    ``slices`` lists evaluation-slice names the mention belongs to
    (attached owner-side after scoring); ``worker`` is the pool rank
    that produced the record, or -1 for in-process capture.
    """

    sentence_id: int
    mention_index: int
    surface: str = ""
    alias: str = ""
    tier: str = ""
    reason: str = ""
    candidate_ids: list[int] = dataclasses.field(default_factory=list)
    prior_scores: list[float] = dataclasses.field(default_factory=list)
    model_scores: list[float] = dataclasses.field(default_factory=list)
    predicted_entity_id: int = -1
    gold_entity_id: int | None = None
    margin: float = 0.0
    confidence: float = 0.0
    type_veto: bool = False
    slices: list[str] = dataclasses.field(default_factory=list)
    worker: int = -1

    @property
    def key(self) -> tuple[int, int]:
        return (self.sentence_id, self.mention_index)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DecisionRecord":
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def _plain(value: Any) -> Any:
    """A numpy scalar as its Python value; anything else unchanged."""
    return value.item() if hasattr(value, "item") else value


class ProvenanceRecorder:
    """Every decision record of a run, keyed by ``(sentence_id, mention_index)``."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], DecisionRecord] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- capture -------------------------------------------------------
    def record(self, sentence_id: int, mention_index: int, **fields: Any) -> None:
        """Store one whole record, replacing any earlier one of its key.

        Array-likes become plain lists and numpy scalars Python values.
        """
        record = DecisionRecord(
            sentence_id=int(sentence_id),
            mention_index=int(mention_index),
            **{
                name: [_plain(v) for v in value]
                if name in _SEQUENCE_FIELDS
                else _plain(value)
                for name, value in fields.items()
            },
        )
        with self._lock:
            self._records[record.key] = record

    # -- read side -----------------------------------------------------
    def records(self) -> list[DecisionRecord]:
        with self._lock:
            return list(self._records.values())

    def snapshot(self) -> list[dict[str, Any]]:
        """Every record as a plain dict (pickle/JSON-safe)."""
        with self._lock:
            return [record.to_dict() for record in self._records.values()]

    def drain(self) -> list[dict[str, Any]]:
        """Every record as a plain dict, then cleared. A worker's share
        of a telemetry shipment."""
        with self._lock:
            rows = [record.to_dict() for record in self._records.values()]
            self._records.clear()
        return rows

    def export_jsonl(self, path: str) -> int:
        """Write every record to ``path`` as JSONL, replacing the file.

        Returns the number of records written.
        """
        rows = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for payload in rows:
                handle.write(json.dumps(payload) + "\n")
        return len(rows)


# ----------------------------------------------------------------------
# Module-level singleton, mirroring repro.obs's enabled/metrics/tracer.
active: bool = False
_recorder: ProvenanceRecorder | None = None


def enable() -> ProvenanceRecorder:
    """Activate provenance capture (requires ``obs.enable()`` too)."""
    global active, _recorder
    _recorder = ProvenanceRecorder()
    active = True
    return _recorder


def disable() -> None:
    global active
    active = False


def reset() -> None:
    """Drop all captured records and deactivate."""
    global active, _recorder
    active = False
    _recorder = None


def recorder() -> ProvenanceRecorder:
    """The live recorder, creating an empty one if needed."""
    global _recorder
    if _recorder is None:
        _recorder = ProvenanceRecorder()
    return _recorder


def record_decision(sentence_id: int, mention_index: int, **fields: Any) -> None:
    """Capture one mention's whole decision record (replaces its key).

    No-op unless :func:`enable` ran; decision paths guard the call with
    ``obs.enabled and provenance.active`` so the disabled fast path
    never reaches here (RA401).
    """
    if not active:
        return
    recorder().record(sentence_id, mention_index, **fields)


def snapshot_records() -> list[dict[str, Any]]:
    """Every captured record as dicts."""
    if _recorder is None:
        return []
    return _recorder.snapshot()


def attach_slices(membership: dict[str, Any]) -> None:
    """Stamp slice memberships onto captured records.

    ``membership`` maps slice name → set of ``(sentence_id,
    mention_index)`` keys (the same shape ``score_slices`` consumes).
    """
    if not active or _recorder is None:
        return
    for record in _recorder.records():
        names = sorted(
            name for name, keys in membership.items() if record.key in keys
        )
        if names:
            record.slices = names


def export_jsonl(path: str) -> int:
    """Write the run's audit trail, every captured record, to JSONL."""
    if _recorder is None:
        return 0
    return _recorder.export_jsonl(path)


# ----------------------------------------------------------------------
# Query side: `repro explain` and the report drill-down.
def load_jsonl(path: str) -> list[DecisionRecord]:
    records: list[DecisionRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(DecisionRecord.from_dict(json.loads(line)))
    except (OSError, json.JSONDecodeError) as error:
        raise SerializationError(
            f"cannot read decision records {path}: {error}"
        ) from error
    return records


def query(
    records: Iterable[DecisionRecord],
    sentence_id: int | None = None,
    mention_index: int | None = None,
    entity_id: int | None = None,
    slice_name: str | None = None,
    tier: str | None = None,
    reason: str | None = None,
    surface: str | None = None,
) -> Iterator[DecisionRecord]:
    """Filter records by any combination of explain-CLI criteria.

    ``entity_id`` matches predicted, gold, or any candidate id —
    "show me every decision this entity was involved in".
    """
    for record in records:
        if sentence_id is not None and record.sentence_id != sentence_id:
            continue
        if mention_index is not None and record.mention_index != mention_index:
            continue
        if entity_id is not None:
            involved = (
                record.predicted_entity_id == entity_id
                or record.gold_entity_id == entity_id
                or entity_id in record.candidate_ids
            )
            if not involved:
                continue
        if slice_name is not None and slice_name not in record.slices:
            continue
        if tier is not None and record.tier != tier:
            continue
        if reason is not None and record.reason != reason:
            continue
        if surface is not None and surface.lower() not in record.surface.lower():
            continue
        yield record


def format_record(record: DecisionRecord, titles: dict[int, str] | None = None) -> str:
    """Human-readable multi-line rendering for `repro explain`."""
    titles = titles or {}

    def name(eid: int | None) -> str:
        if eid is None:
            return "?"
        title = titles.get(int(eid))
        return f"{eid} ({title})" if title else str(eid)

    lines = [
        f"sentence {record.sentence_id} mention {record.mention_index}: "
        f"{record.surface!r} (alias {record.alias!r})",
        f"  tier={record.tier} reason={record.reason} "
        f"margin={record.margin:.4f} confidence={record.confidence:.4f}"
        + (" type-veto" if record.type_veto else ""),
        f"  predicted={name(record.predicted_entity_id)}"
        + (
            f" gold={name(record.gold_entity_id)}"
            if record.gold_entity_id is not None
            else ""
        )
        + (f" worker={record.worker}" if record.worker >= 0 else ""),
    ]
    if record.slices:
        lines.append(f"  slices: {', '.join(record.slices)}")
    if record.candidate_ids:
        lines.append("  candidates:")
        for i, cid in enumerate(record.candidate_ids):
            prior = (
                f"{record.prior_scores[i]:.4f}"
                if i < len(record.prior_scores)
                else "-"
            )
            model = (
                f"{record.model_scores[i]:.4f}"
                if i < len(record.model_scores)
                else "-"
            )
            marker = " *" if int(cid) == int(record.predicted_entity_id) else ""
            lines.append(
                f"    {name(int(cid))}: prior={prior} model={model}{marker}"
            )
    return "\n".join(lines)
