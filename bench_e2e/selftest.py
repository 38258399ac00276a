"""Self-tests of the benchmark, at a tiny size.

Run from the root of a checkout (about a minute; the first run also
prepares the tiny world and model)::

    python3 bench_e2e/selftest.py

or collect it with ``python -m pytest bench_e2e/selftest.py``. The
tests check that BENCHMARK.json names exactly the workloads and metrics
the benchmark implements; that a smoke run of every workload, untraced
and traced, emits every named metric with its unit and passes its
correctness checks; that no process outlives a pool run; that a traced
run's self times add up to its call time within
``trace.unattributed_frac``; and that each correctness check fails
when given a deliberately perturbed output.
"""

import run  # first: it pins the BLAS threads before numpy loads

import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workload  # noqa: E402
from prepare import TINY, prepare  # noqa: E402

from repro.core.annotator import AnnotatedMention  # noqa: E402

SMOKE_SECONDS = 0.2


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_implementation():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "bench_e2e/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workload.WORKLOADS.items()
    }
    for key, catalog in (("end_to_end", workload.END_TO_END), ("per_layer", workload.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == catalog
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _smoke(name: str, trace: bool):
    prepared = prepare(run.ROOT, TINY)
    outcome = workload.run(
        prepared, TINY, name, seed=3, seconds=SMOKE_SECONDS, trace=trace,
        l2_bytes=run.l2_bytes(),
    )
    assert outcome.correct, (name, trace, outcome.failed, outcome.details)
    catalog = workload.PER_LAYER if trace else workload.END_TO_END
    assert set(catalog) <= set(outcome.metrics), set(catalog) - set(outcome.metrics)
    for metric, (unit, better) in catalog.items():
        value = outcome.metrics[metric]
        assert isinstance(value, float) and math.isfinite(value), (metric, value)
        assert unit and better in ("lower", "higher"), metric
    return outcome


def test_untraced_smoke_runs_emit_every_end_to_end_metric():
    for name in workload.WORKLOADS:
        metrics = _smoke(name, trace=False).metrics
        for metric in ("setup_s", "docs_per_s", "latency_p50_ms", "latency_tail_ms", "pss_mb"):
            assert metrics[metric] > 0, (name, metric)


def test_no_process_outlives_a_pool_run():
    _smoke("bulk_tail_pool2", trace=False)
    assert run.child_pids(), "the pool's resource tracker should still run"
    run.stop_child_processes()
    assert run.child_pids() == []


def test_traced_self_times_add_up_to_call_time():
    for name in workload.WORKLOADS:
        outcome = _smoke(name, trace=True)
        traced_seconds = sum(outcome.details["pass_seconds"][1])
        spans = outcome.tracer.spans
        assert spans, name
        # Self time from the written spans: duration minus children's.
        children = collections.defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        attributed = sum(end - start - children[i] for i, _, start, end, _, _ in spans)
        unattributed = outcome.metrics["trace.unattributed_frac"]
        assert 0.0 <= unattributed < 0.1, (name, unattributed)
        assert math.isclose(
            attributed, traced_seconds * (1.0 - unattributed), rel_tol=1e-6
        ), (name, attributed, traced_seconds, unattributed)


def _mention(entity_id=5, score=0.75, tier="model", start=0):
    return AnnotatedMention(
        start, start + 1, "name5", entity_id, f"e{entity_id}", score,
        [(f"e{entity_id}", score), ("e9", 0.25)], tier,
    )


def _nudge(mention, **changes):
    return dataclasses.replace(mention, **changes)


def test_pool_identity_check_fails_on_a_one_ulp_difference():
    serial = [[[_mention()], []], [[_mention(start=2)]]]
    assert checks.identical_calls(serial, serial) == []
    pooled = [[[_nudge(_mention(), score=math.nextafter(0.75, 1.0))], []], serial[1]]
    assert checks.identical_calls(pooled, serial) == [0]


def test_escalation_check_fails_on_a_diverging_escalated_mention():
    output = [[[_mention(tier="tier0")], [_mention(start=3)]]]
    twin = [_mention(start=3)]
    assert checks.escalated_identity(output, [[1]], lambda c, docs: [twin]) == []
    wrong = [_nudge(twin[0], entity_id=6)]
    assert checks.escalated_identity(output, [[1]], lambda c, docs: [wrong]) == [0]
    # A model-tier mention in a document tier 0 did not escalate.
    assert checks.escalated_identity(output, [[]], lambda c, docs: []) == [0]


def test_single_check_allows_ulps_but_not_other_ids_or_scores():
    batched = [[_mention()]]
    close = [[[_nudge(_mention(), score=math.nextafter(0.75, 1.0))]]]
    assert checks.single_matches_batched(close, batched) == []
    other_id = [[[_nudge(_mention(), entity_id=6)]]]
    assert checks.single_matches_batched(other_id, batched) == [0]
    runner_up = [[[_nudge(_mention(), entity_id=9, entity_title="e9")]]]
    assert checks.single_matches_batched(runner_up, batched) == [0]
    far = [[[_nudge(_mention(), score=0.75 * (1 + 1e-6))]]]
    assert checks.single_matches_batched(far, batched) == [0]
    # Candidates tied within the tolerance may swap, and so may the
    # entity they decide.
    tied = _nudge(_mention(), candidates=[("e5", 0.75), ("e9", 0.75)])
    swapped = _nudge(
        tied, entity_id=9, entity_title="e9", candidates=[("e9", 0.75), ("e5", 0.75)]
    )
    assert checks.single_matches_batched([[[swapped]]], [[tied]]) == []


def test_digests_change_with_any_output_change():
    output = [[_mention()]]
    assert checks.call_bytes(output) == checks.call_bytes([[_mention()]])
    assert checks.call_bytes(output) != checks.call_bytes(
        [[_nudge(_mention(), score=math.nextafter(0.75, 0.0))]]
    )
    assert checks.entity_digest([output]) != checks.entity_digest(
        [[[_nudge(_mention(), entity_id=6)]]]
    )


def test_timed_passes_count_calls_that_differ_raise_or_failed_a_check():
    reference = [[[_mention()]], [[_mention(start=2)]], [[_mention(start=4)]]]
    nudged = [[_nudge(_mention(start=2), score=math.nextafter(0.75, 1.0))]]

    def invoke(call):
        if call == 2:
            raise RuntimeError("deliberate")
        return [reference[0], nudged][call]

    phase = workload.Phase()
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        for _ in range(2):
            workload.timed_pass(
                phase, invoke, calls=[0, 1, 2, 0],
                reference=reference + [reference[0]], bad_calls={3}, worker_pids=[],
            )
    assert stderr.getvalue().count("RuntimeError: deliberate") == 2
    # Per pass: call 0 passes, 1 differs, 2 raises, 3 failed a check.
    assert (phase.attempted, phase.failed) == (8, 6)
    assert len(phase.pass_seconds) == 2 and len(phase.latencies) == 8


def test_end_to_end_times_are_scaled_by_each_pass_host_factor():
    def metrics(factors):
        phase = workload.Phase(
            pass_seconds=[0.5, 0.5], latencies=[0.2, 0.3, 0.2, 0.3],
            host_factors=factors,
        )
        return workload._end_to_end(phase, [2, 3], [0.1], {}, 0)

    base, slow = metrics([1.0, 1.0]), metrics([2.0, 2.0])
    assert math.isclose(slow["docs_per_s"], 2 * base["docs_per_s"])
    for name in ("latency_p50_ms", "latency_tail_ms"):
        assert math.isclose(slow[name], base[name] / 2), name
    # A document's latency is its call's median over passes, each pass
    # scaled by its own factor.
    mixed = workload.document_latencies(
        workload.Phase(latencies=[0.2, 0.4, 0.6, 0.8], host_factors=[1.0, 2.0]), [1, 1]
    )
    assert all(map(math.isclose, mixed, [(0.2 + 0.6 / 2) / 2, 0.4]))


def test_cross_run_digest_check_fails_on_a_changed_entity():
    prepared = prepare(run.ROOT, TINY)
    digests = prepared.directory / "digests"
    for path in digests.glob("selftest-*"):
        path.unlink()
    calls = [["name5 w1"], ["w2 w3 name5"]]
    outputs = [[[_mention()]], [[_mention(start=2)]]]
    mismatches = workload._cross_run_mismatches
    try:
        assert mismatches(prepared, "selftest", calls, outputs) == []
        assert mismatches(prepared, "selftest", calls, outputs) == []
        changed = [outputs[0], [[_nudge(_mention(start=2), entity_id=6)]]]
        assert mismatches(prepared, "selftest", calls, changed) == [1]
    finally:
        for path in digests.glob("selftest-*"):
            path.unlink()


def test_span_f1_scores_slices():
    gold = [[(0, 1, 5)], [(2, 3, 7)]]
    bucket = {5: "tail", 7: "unseen"}.get
    perfect = [[[_mention()], [_mention(entity_id=7, start=2)]]]
    assert checks.span_f1(perfect, gold, bucket) == {
        "f1": 1.0, "tail_f1": 1.0, "unseen_f1": 1.0,
    }
    wrong = [[[_mention()], [_mention(entity_id=8, start=2)]]]
    scores = checks.span_f1(wrong, gold, bucket)
    assert scores["tail_f1"] == 1.0 and scores["unseen_f1"] == 0.0
    assert scores["f1"] == 0.5


def main() -> int:
    tests = [value for key, value in sorted(globals().items()) if key.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
