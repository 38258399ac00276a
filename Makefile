# Convenience targets for the Bootleg reproduction.

.PHONY: install test lint lint-fast check test-report bench \
	bench-report bench-e2e bench-store obs-demo report-demo examples \
	clean-cache

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# Repo-invariant linter + whole-program pass (import layering, cycles
# and confinement, resource lifecycles) + runtime model-graph verifier
# (docs/ANALYSIS.md). Strict over the package (including the
# instantiated model zoo); both passes warn-only over benchmarks/ and
# examples/. ruff runs when available; the container image does not
# ship it, so its absence is not an error.
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
# whole-program pass — layering, confinement (RA613), lifecycles — is
# skipped: it is inherently full-tree.
lint-fast:
	PYTHONPATH=src python -m repro.cli lint src/repro benchmarks examples \
		--changed-only

# CI gate: invariants first (`lint`: strict over src/repro, warn-only
# over benchmarks/ and examples/), then the tier-1 test suite, then the
# parallel layer and the report/aggregation path again under the strict
# spawn start method (everything crossing the process boundary must
# pickle; nothing may rely on fork-inherited state). pyproject.toml's
# addopts already pass -q; a second one would hide the pass count.
check: lint
	PYTHONPATH=src python -m pytest -x
	REPRO_PARALLEL_START_METHOD=spawn PYTHONPATH=src \
		python -m pytest tests/test_parallel.py tests/test_report.py \
		tests/test_store.py tests/test_cascade.py \
		tests/test_provenance.py -x

test-report:
	PYTHONPATH=src python -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

bench-report:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# The performance ledger (BENCHMARK.json, bench_e2e/): the benchmark's
# self-tests, then one run of every workload BENCHMARK.json lists, for
# its run_seconds, at seed 1. Each run prints its conditions, its
# end-to-end metrics and its correctness checks, and exits non-zero on a
# failed call or check; the first such run stops the target. The first
# run in a checkout also trains the benchmark model (cached under
# .bench_build/).
bench-e2e:
	python3 bench_e2e/selftest.py
	@seconds=$$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])') && \
	for workload in $$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		echo "bench_e2e: $$workload, $$seconds s"; \
		python3 bench_e2e/run.py --workload $$workload --seed 1 \
			--seconds $$seconds --trace 0 || exit $$?; \
	done

# Entity payload store gates (docs/ENTITY_STORE.md): (a) warm mmap row
# gather within 1.3x of dense, (b) a 1M-entity synthetic payload served
# under a fixed resident budget with store.resident_bytes telemetry,
# (c) byte-identical annotations dense vs mmap. Exits non-zero when a
# gate fails.
bench-store:
	PYTHONPATH=src python benchmarks/bench_store.py

# Emit a sample telemetry bundle (metrics JSON + Chrome trace) from the
# quickstart example into benchmarks/results/; load the trace in
# chrome://tracing.
obs-demo:
	mkdir -p benchmarks/results
	PYTHONPATH=src python examples/quickstart.py \
		--metrics-out benchmarks/results/obs_metrics.json \
		--trace-out benchmarks/results/obs_trace.json

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
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/train_custom_kb.py
	PYTHONPATH=src python examples/tail_disambiguation.py
	PYTHONPATH=src python examples/embedding_compression.py
	PYTHONPATH=src python examples/downstream_relation_extraction.py
	PYTHONPATH=src python examples/error_analysis.py
