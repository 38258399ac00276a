# Convenience targets for the Bootleg reproduction.

.PHONY: install test lint lint-fast check bench bench-core \
	bench-core-baseline bench-fresh bench-parallel bench-store \
	bench-cascade bench-cascade-baseline bench-summary obs-demo \
	obs-live-demo report-demo examples clean-cache

install:
	pip install -e .

test:
	pytest tests/

# Repo-invariant linter + whole-program pass (import layering and
# confinement, resource lifecycles, fork/thread safety) + runtime
# model-graph verifier (docs/ANALYSIS.md). Strict over the package
# (including the instantiated model zoo); both passes warn-only over
# benchmarks/ and examples/. ruff runs when available; the container
# image does not ship it, so its absence is not an error.
lint:
	PYTHONPATH=src python -m repro.cli lint src/repro --project --models
	PYTHONPATH=src python -m repro.cli lint benchmarks examples --project --warn-only
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro tests; \
	else \
		echo "ruff not installed; skipping style pass"; \
	fi

# Inner-loop lint: per-file rules over files git reports as changed
# only (falls back to the full walk outside a work tree). The
# whole-program pass — layering, confinement (RA613), lifecycles, fork
# safety — is skipped: it is inherently full-tree.
lint-fast:
	PYTHONPATH=src python -m repro.cli lint src/repro benchmarks examples \
		--changed-only

# CI gate: invariants first (`lint`: strict over src/repro, warn-only
# over benchmarks/ and examples/), then the tier-1 test suite, then the
# parallel layer and the report/aggregation path again under the strict
# spawn start method (everything crossing the process boundary must
# pickle; nothing may rely on fork-inherited state).
check: lint
	PYTHONPATH=src python -m pytest -x -q
	REPRO_PARALLEL_START_METHOD=spawn PYTHONPATH=src \
		python -m pytest tests/test_parallel.py tests/test_report.py \
		tests/test_store.py tests/test_live_obs.py \
		tests/test_cascade.py tests/test_provenance.py -x -q
	$(MAKE) obs-live-demo

test-report:
	pytest tests/ 2>&1 | tee test_output.txt

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Core microbenchmarks (forward pass, annotator throughput, collation)
# compared against the committed baseline; fails on a >20% mean
# regression. The baseline file is never rewritten by this target.
bench-core:
	pytest benchmarks/bench_perf_core.py --benchmark-only \
		--benchmark-json=benchmarks/.bench_core_latest.json
	python benchmarks/compare_to_baseline.py \
		benchmarks/.bench_core_latest.json \
		benchmarks/bench_core_baseline.json --max-regression 0.20

# Explicitly refresh the committed baseline (run on the reference box
# after an intentional perf change, then commit the JSON).
bench-core-baseline:
	pytest benchmarks/bench_perf_core.py --benchmark-only \
		--benchmark-json=benchmarks/bench_core_baseline.json

# Annotator-pool and prefetch speedup vs. the serial path; asserts
# byte-identical outputs and bounded shared-memory overhead, and gates
# the 2x-speedup floor on having >= 4 usable cores (see the script).
# Fails on a >20% mean regression against the committed baseline
# (benchmarks/bench_parallel_baseline.json; refresh it deliberately and
# commit after an intentional perf change).
bench-parallel:
	mkdir -p benchmarks/results
	PYTHONPATH=src python benchmarks/bench_parallel.py \
		--out benchmarks/results/BENCH_parallel.json
	python benchmarks/compare_to_baseline.py \
		benchmarks/results/BENCH_parallel.json \
		benchmarks/bench_parallel_baseline.json \
		--max-regression 0.20

# Entity payload store gates (docs/ENTITY_STORE.md): (a) warm mmap row
# gather within 1.3x of dense, (b) a 1M-entity synthetic payload served
# under a fixed resident budget with store.resident_bytes telemetry,
# (c) byte-identical annotations dense vs mmap. Fails on a >20% mean
# regression against the committed baseline
# (benchmarks/bench_store_baseline.json).
bench-store:
	mkdir -p benchmarks/results
	PYTHONPATH=src python benchmarks/bench_store.py \
		--out benchmarks/results/BENCH_store.json
	python benchmarks/compare_to_baseline.py \
		benchmarks/results/BENCH_store.json \
		benchmarks/bench_store_baseline.json \
		--max-regression 0.20

# Tiered-cascade gates (docs/CASCADE.md): (a) >= 2x end-to-end
# annotation throughput over the full-model path on a head-heavy
# corpus, (b) escalated-mention outputs byte-identical to a standalone
# full-model pass over the escalated documents, (c) `repro report diff
# --fail-on-regression` clean vs the full-model baseline report. Fails
# on a >20% regression against the committed baseline (the
# cascade_speedup entry gates in the higher-is-better direction).
bench-cascade:
	mkdir -p benchmarks/results
	PYTHONPATH=src python benchmarks/bench_cascade.py \
		--out benchmarks/results/BENCH_cascade.json
	python benchmarks/compare_to_baseline.py \
		benchmarks/results/BENCH_cascade.json \
		benchmarks/bench_cascade_baseline.json \
		--max-regression 0.20

# Explicitly refresh the committed cascade baseline (run on the
# reference box after an intentional perf change, then commit the JSON).
bench-cascade-baseline:
	mkdir -p benchmarks/results
	PYTHONPATH=src python benchmarks/bench_cascade.py \
		--out benchmarks/bench_cascade_baseline.json

# Consolidate every benchmarks/results/BENCH_*.json written by the
# suites above into one BENCH_summary.json (suite -> headline means),
# so dashboards and CI annotations read a single file.
bench-summary:
	mkdir -p benchmarks/results
	python benchmarks/bench_summary.py

# Emit a sample telemetry bundle (metrics JSON + Chrome trace) from the
# quickstart example into benchmarks/results/; load the trace in
# chrome://tracing.
obs-demo:
	mkdir -p benchmarks/results
	PYTHONPATH=src python examples/quickstart.py \
		--metrics-out benchmarks/results/obs_metrics.json \
		--trace-out benchmarks/results/obs_trace.json

# Live-telemetry smoke test: run a pooled evaluate with --serve-metrics
# and scrape /metrics + /healthz mid-run, asserting per-worker series
# (worker="0"..) and sampler gauges are live while work is in flight.
# Exits 0 with a skip note on boxes without POSIX shared memory.
obs-live-demo:
	PYTHONPATH=src python benchmarks/obs_live_demo.py

# Train + evaluate a small world end to end and emit the full report
# bundle (JSON + self-contained HTML dashboard + merged pool metrics)
# into benchmarks/results/. Open run_report.html in a browser.
report-demo:
	mkdir -p benchmarks/results
	PYTHONPATH=src python benchmarks/report_demo.py \
		--out-dir benchmarks/results

# Drop all cached trained models so benches retrain from scratch.
clean-cache:
	rm -rf .repro_cache

examples:
	python examples/quickstart.py
	python examples/train_custom_kb.py
	python examples/tail_disambiguation.py
	python examples/embedding_compression.py
	python examples/downstream_relation_extraction.py
