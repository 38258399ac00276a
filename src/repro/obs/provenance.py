"""Per-mention decision provenance: the explainability plane.

Telemetry (metrics + spans) says how many mentions resolved and how
fast; it never says *why* mention 17 in sentence 42 went to entity 5
instead of entity 7. This module captures one :class:`DecisionRecord`
per mention decision — surface form, normalized alias, candidate ids
with prior and model scores, score margin, tier and machine-readable
escalation reason, type-veto outcome, slice memberships, worker rank,
and span timing — behind the same no-op fast path as every other obs
layer: when ``obs.enabled`` is off (or provenance is not activated) the
decision paths pay a single attribute check and nothing else.

Storage is a bounded insertion-ordered ring keyed by
``(sentence_id, mention_index)``. Re-recording a key *upserts*: fields
the newcomer leaves unset (``None``) keep the stored value, so the
tier-0 pass, the model pass, and the owner-side enrichment (slices,
gold ids) each contribute their piece of the same record. When the
ring is full the oldest record is evicted into a backlog — appended to
the JSONL spill file, when one is configured, so long runs keep a
complete audit trail on disk while memory stays bounded; without a
spill file the backlog is kept for :meth:`ProvenanceRecorder.export_jsonl`
or the next :meth:`ProvenanceRecorder.drain`.

Cross-process semantics follow :mod:`repro.obs.aggregate`: pool workers
capture into their own rings, and every telemetry shipment drains the
backlog plus the ring. The owner folds the shipped rows in through the
same upsert, stamped with the worker's rank. A pooled call makes and
records every decision in a worker, tier 0 included; the owner only
attaches slices, once the pool has closed and every shipment is in. So
upserting in arrival order builds the record serial capture would.

Lint rule RA613 confines :class:`DecisionRecord` to ``repro.obs``, and
RA401 keeps every ``record_*`` capture call behind ``obs.enabled``, the
same guard it enforces for metric emission.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import OrderedDict
from typing import Any, Iterable, Iterator

from repro.errors import SerializationError

DEFAULT_CAPACITY = 4096

#: Fields that carry numpy arrays in the decision paths; normalized to
#: plain lists on capture so records pickle small and dump to JSON.
_SEQUENCE_FIELDS = ("candidate_ids", "prior_scores", "model_scores")


@dataclasses.dataclass
class DecisionRecord:
    """Everything known about one mention's linking decision.

    Score fields are parallel to ``candidate_ids``: ``prior_scores``
    are the tier-0 normalized popularity priors, ``model_scores`` the
    model's per-candidate scores (empty for mentions tier 0 answered).
    ``margin`` / ``confidence`` belong to whichever tier decided;
    ``seconds`` is that tier's per-mention amortized span timing.
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
    margin: float = 0.0  # repro-lint: disable=RA603 — an observed value, not a threshold
    confidence: float = 0.0
    type_veto: bool = False
    slices: list[str] = dataclasses.field(default_factory=list)
    worker: int = -1
    seconds: float = 0.0

    @property
    def key(self) -> tuple[int, int]:
        return (self.sentence_id, self.mention_index)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DecisionRecord":
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def _clean(updates: dict[str, Any]) -> dict[str, Any]:
    """Drop unset fields and coerce array-likes to plain lists."""
    cleaned: dict[str, Any] = {}
    for name, value in updates.items():
        if value is None:
            continue
        if name in _SEQUENCE_FIELDS or name == "slices":
            value = [v.item() if hasattr(v, "item") else v for v in value]
        elif hasattr(value, "item"):
            value = value.item()
        cleaned[name] = value
    return cleaned


class ProvenanceRecorder:
    """Bounded ring of decision records with optional JSONL spill."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        spill_path: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"provenance capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_path = spill_path
        self._records: OrderedDict[tuple[int, int], DecisionRecord] = OrderedDict()
        self._spill_buffer: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- capture -------------------------------------------------------
    def record(self, sentence_id: int, mention_index: int, **fields: Any) -> None:
        """Upsert one record; unset (None) fields keep stored values."""
        updates = _clean(fields)
        with self._lock:
            key = (int(sentence_id), int(mention_index))
            existing = self._records.pop(key, None)
            if existing is None:
                existing = DecisionRecord(sentence_id=key[0], mention_index=key[1])
            for name, value in updates.items():
                setattr(existing, name, value)
            self._records[key] = existing
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._records) > self.capacity:
            _, evicted = self._records.popitem(last=False)
            self._spill_buffer.append(evicted.to_dict())
        if self.spill_path and len(self._spill_buffer) >= 256:
            self._flush_spill_locked()

    def _flush_spill_locked(self) -> None:
        if not self.spill_path or not self._spill_buffer:
            self._spill_buffer.clear()
            return
        with open(self.spill_path, "a", encoding="utf-8") as handle:
            for payload in self._spill_buffer:
                handle.write(json.dumps(payload) + "\n")
        self._spill_buffer.clear()

    # -- read side -----------------------------------------------------
    def records(self) -> list[DecisionRecord]:
        with self._lock:
            return list(self._records.values())

    def snapshot(self) -> list[dict[str, Any]]:
        """Ring contents as plain dicts (pickle/JSON-safe)."""
        with self._lock:
            return [record.to_dict() for record in self._records.values()]

    def drain(self) -> list[dict[str, Any]]:
        """Evicted backlog then ring, oldest first, as plain dicts;
        both are cleared. A worker's share of a telemetry shipment."""
        with self._lock:
            rows = self._spill_buffer + [
                record.to_dict() for record in self._records.values()
            ]
            self._spill_buffer = []
            self._records.clear()
        return rows

    def flush(self) -> None:
        """Write spilled-but-buffered records out to the spill file."""
        with self._lock:
            self._flush_spill_locked()

    def export_jsonl(self, path: str) -> int:
        """Spill any evicted backlog, then append the live ring to ``path``.

        Together with the eviction spill this makes the JSONL file a
        complete audit trail. Returns the number of records written in
        this call.
        """
        with self._lock:
            if self.spill_path == path:
                self._flush_spill_locked()
                pending: list[dict[str, Any]] = []
            else:
                pending = list(self._spill_buffer)
                self._spill_buffer.clear()
            live = [record.to_dict() for record in self._records.values()]
        rows = pending + live
        with open(path, "a", encoding="utf-8") as handle:
            for payload in rows:
                handle.write(json.dumps(payload) + "\n")
        return len(rows)


# ----------------------------------------------------------------------
# Module-level singleton, mirroring repro.obs's enabled/metrics/tracer.
active: bool = False
_recorder: ProvenanceRecorder | None = None


def enable(
    capacity: int = DEFAULT_CAPACITY,
    spill_path: str | None = None,
) -> ProvenanceRecorder:
    """Activate provenance capture (requires ``obs.enable()`` too)."""
    global active, _recorder
    _recorder = ProvenanceRecorder(capacity=capacity, spill_path=spill_path)
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
    """The live recorder, creating a default-sized one if needed."""
    global _recorder
    if _recorder is None:
        _recorder = ProvenanceRecorder()
    return _recorder


def record_decision(sentence_id: int, mention_index: int, **fields: Any) -> None:
    """Capture/extend one mention's decision record (upsert by key).

    No-op unless :func:`enable` ran; decision paths guard the call with
    ``obs.enabled and provenance.active`` so the disabled fast path
    never reaches here (RA401).
    """
    if not active:
        return
    recorder().record(sentence_id, mention_index, **fields)


def snapshot_records() -> list[dict[str, Any]]:
    """Current ring as dicts — the worker-shipping payload."""
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


def flush() -> None:
    if _recorder is not None:
        _recorder.flush()


def export_jsonl(path: str) -> int:
    """Write the full audit trail (spill backlog + live ring) to JSONL."""
    if _recorder is None:
        return 0
    return _recorder.export_jsonl(path)


# ----------------------------------------------------------------------
# Query side: `repro explain`, /provenance, report drill-down.
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
