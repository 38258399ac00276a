"""Cross-process telemetry aggregation: one shipment type, one merge rule.

A pool worker records into its own process-local ``repro.obs``
singletons and provenance recorder; without aggregation everything it
observed would die with the child process. This module is both ends of
the exchange:

- the **worker** calls :func:`take_shipment` to package what it
  recorded *since its last shipment* — metric deltas, closed spans and
  decision records — into one picklable dict, and clears that state,
  so consecutive shipments are disjoint;
- the **owner** calls :func:`merge_telemetry` on each shipment as soon
  as it arrives, folding counters/gauges/histograms into the global
  registry under re-labeled keys (``parallel.pool.chunk_seconds`` →
  ``…{worker=3}``), grafting the spans — with their real pid/tid —
  into the global tracer, and storing the decision records in the
  provenance recorder stamped with the worker's rank.

Because shipments are disjoint, merging each one exactly once keeps the
owner exact up to the last shipment it read: counters and histogram
count, sum, min and max equal what the workers shipped, and nothing is
held per worker on the owner side. The heavy lifting (reservoir merging,
key re-labeling, span rehydration, keyed records) lives on
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.trace.SpanTracer` and :mod:`repro.obs.provenance`.
"""

from __future__ import annotations

import repro.obs as obs
from repro.obs import provenance


def take_shipment() -> dict:
    """Everything recorded since the last shipment, then cleared."""
    shipment = {
        "metrics": obs.metrics.snapshot(),
        "trace": obs.tracer.snapshot(),
        "provenance": provenance.recorder().drain(),
    }
    obs.reset()
    return shipment


def merge_telemetry(shipment: dict, worker: int) -> None:
    """Fold one :func:`take_shipment` into the owner under ``worker``.

    Metric keys gain a ``worker=<rank>`` label; spans keep their
    recorded pid/tid, which is what separates workers on the trace
    timeline; each decision record replaces any earlier record of its
    key, as every capture does (a no-op unless provenance is active).
    """
    obs.metrics.merge(shipment["metrics"], worker=worker)
    obs.tracer.merge(shipment["trace"])
    for row in shipment["provenance"]:
        provenance.record_decision(**{**row, "worker": worker})
