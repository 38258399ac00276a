"""Tests for the live telemetry plane: exporter, sampler, flight recorder.

Covers Prometheus text rendering, the four HTTP endpoints, the health
registry (readiness probes + progress watermarks), the /proc resource
sampler, the bounded flight recorder (SIGUSR2 and crash-hook dumps),
the pool's per-worker telemetry shipments (worker series in the owner
registry while the pool runs, exactly-once merging, health flip on a
killed worker, a dead worker's shipped data kept), and the CLI teardown
of ``--serve-metrics`` / ``--flight-dir``. ``make check`` runs this
module a second time under the spawn start method.
"""

import json
import os
import signal
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest

import repro.obs as obs
from repro import cli
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    build_vocabulary,
    detokenize,
    generate_corpus,
)
from repro.corpus.tokenizer import tokenize
from repro.kb import WorldConfig, generate_world
from repro.nn import compute_dtype
from repro.obs import exporter
from repro.obs import sampler as sampler_mod
from repro.obs.exporter import (
    HealthRegistry,
    TelemetryServer,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, parse_metric_key
from repro.parallel import AnnotatorPool, shared_memory_available


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), (
            error.read().decode("utf-8")
        )


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------
class TestRenderPrometheus:
    def test_histogram_renders_as_summary_with_labels(self):
        registry = MetricsRegistry()
        registry.histogram(
            "parallel.pool.chunk_seconds", worker="0"
        ).observe(0.5)
        text = render_prometheus(registry.to_dict())
        # The acceptance format: dots sanitised, labels sorted, quantile
        # series plus _count/_sum.
        assert "# TYPE parallel_pool_chunk_seconds summary" in text
        assert (
            'parallel_pool_chunk_seconds{quantile="0.5",worker="0"} 0.5'
            in text
        )
        assert 'parallel_pool_chunk_seconds_count{worker="0"} 1' in text
        assert 'parallel_pool_chunk_seconds_sum{worker="0"} 0.5' in text

    def test_counters_gauges_and_single_type_line(self):
        registry = MetricsRegistry()
        registry.counter("eval.batches").inc(3)
        registry.gauge("store.resident_bytes").set(1024)
        registry.gauge("store.resident_bytes", pid=7).set(512)
        text = render_prometheus(registry.to_dict())
        assert "# TYPE eval_batches counter" in text
        assert "eval_batches 3.0" in text
        assert text.count("# TYPE store_resident_bytes gauge") == 1
        assert "store_resident_bytes 1024.0" in text
        assert 'store_resident_bytes{pid="7"} 512.0' in text

    def test_empty_histogram_quantiles_are_nan(self):
        registry = MetricsRegistry()
        registry.histogram("infer.batch_seconds")
        text = render_prometheus(registry.to_dict())
        assert 'infer_batch_seconds{quantile="0.5"} NaN' in text
        assert "infer_batch_seconds_count 0" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g.bytes", path='a"b\\c').set(1.0)
        text = render_prometheus(registry.to_dict())
        assert r'g_bytes{path="a\"b\\c"} 1.0' in text


# ----------------------------------------------------------------------
# Health registry
# ----------------------------------------------------------------------
class TestHealthRegistry:
    def test_aggregates_ok_across_components(self):
        registry = HealthRegistry()
        registry.register("store", lambda: {"ok": True, "kind": "dense"})
        report = registry.check()
        assert report["ok"] is True
        assert report["components"]["store"]["kind"] == "dense"
        registry.register("pool", lambda: {"ok": False, "workers_alive": 1})
        report = registry.check()
        assert report["ok"] is False
        assert report["components"]["pool"]["workers_alive"] == 1

    def test_raising_probe_reported_not_propagated(self):
        registry = HealthRegistry()

        def broken():
            raise RuntimeError("boom")

        registry.register("store", broken)
        report = registry.check()
        assert report["ok"] is False
        assert "boom" in report["components"]["store"]["error"]

    def test_beat_exposes_seconds_since_progress(self):
        registry = HealthRegistry()
        registry.register("pool", lambda: {"ok": True})
        registry.beat("pool")
        report = registry.check()
        since = report["components"]["pool"]["seconds_since_progress"]
        assert 0.0 <= since < 5.0

    def test_unregister_compares_probe_by_equality(self):
        class Component:
            def health(self):
                return {"ok": True}

        registry = HealthRegistry()
        first, second = Component(), Component()
        registry.register("pool", first.health)
        # A stale owner must not evict the current registration...
        registry.unregister("pool", second.health)
        assert "pool" in registry.check()["components"]
        # ...but the real owner must, even though bound methods are
        # fresh objects on every attribute access.
        registry.unregister("pool", first.health)
        assert registry.check()["components"] == {}


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
class TestTelemetryServer:
    def test_metrics_endpoints_and_trace(self):
        with obs.scope(fresh=True) as (metrics, _tracer):
            metrics.counter("eval.batches").inc(3)
            metrics.histogram("infer.batch_seconds").observe(0.25)
            with obs.span("live.unit"):
                pass
            with TelemetryServer(port=0) as server:
                status, ctype, body = _get(server.url + "/metrics")
                assert status == 200
                assert ctype.startswith("text/plain")
                assert "version=0.0.4" in ctype
                assert "eval_batches 3.0" in body
                assert 'infer_batch_seconds{quantile="0.5"} 0.25' in body

                status, ctype, body = _get(server.url + "/metrics.json")
                assert status == 200 and ctype == "application/json"
                assert json.loads(body)["counters"]["eval.batches"] == 3

                status, _, body = _get(server.url + "/trace")
                assert status == 200
                names = {s["name"] for s in json.loads(body)["spans"]}
                assert "live.unit" in names

                # Trailing slashes and query strings are normalised;
                # unknown paths are 404.
                assert _get(server.url + "/metrics/?x=1")[0] == 200
                assert _get(server.url + "/nope")[0] == 404

    def test_healthz_flips_to_503_on_failing_probe(self):
        exporter.health.reset()
        try:
            exporter.health.register("store", lambda: {"ok": True})
            with TelemetryServer(port=0) as server:
                status, _, body = _get(server.url + "/healthz")
                assert status == 200 and json.loads(body)["ok"] is True
                exporter.health.register(
                    "pool", lambda: {"ok": False, "workers_alive": 1}
                )
                status, _, body = _get(server.url + "/healthz")
                report = json.loads(body)
                assert status == 503 and report["ok"] is False
                assert report["components"]["pool"]["workers_alive"] == 1
        finally:
            exporter.health.reset()

    def test_stop_is_idempotent_and_frees_the_port(self):
        server = TelemetryServer(port=0).start()
        port = server.port
        server.stop()
        server.stop()
        assert server.port is None
        # The port is released: a fresh server can bind it again.
        with TelemetryServer(port=port):
            pass


# ----------------------------------------------------------------------
# Resource sampler
# ----------------------------------------------------------------------
class TestResourceSampler:
    def test_sample_once_records_process_gauges(self):
        registry = MetricsRegistry()
        sampler_mod.ResourceSampler(interval=60.0).sample_once(
            registry=registry
        )
        gauges = registry.to_dict()["gauges"]
        assert gauges["process.resident_bytes"] > 0
        assert gauges["process.open_fds"] > 0
        assert gauges["process.cpu_seconds"] >= 0.0
        assert "process.shm_bytes" in gauges

    def test_pids_provider_and_gauge_sources(self):
        pid = os.getpid()
        pids_token = sampler_mod.register_pids_provider(lambda: [pid])
        gauge_token = sampler_mod.register_gauge_source(
            "store.resident_bytes", lambda: 123.0
        )
        silent_token = sampler_mod.register_gauge_source(
            "store.ghost_bytes", lambda: None
        )
        try:
            registry = MetricsRegistry()
            sampler_mod.ResourceSampler(interval=60.0).sample_once(
                registry=registry
            )
            gauges = registry.to_dict()["gauges"]
            assert gauges[f"process.resident_bytes{{pid={pid}}}"] > 0
            assert gauges["store.resident_bytes"] == 123.0
            # A None-returning source skips its sample entirely.
            assert "store.ghost_bytes" not in gauges
        finally:
            sampler_mod.unregister_pids_provider(pids_token)
            sampler_mod.unregister_gauge_source(gauge_token)
            sampler_mod.unregister_gauge_source(silent_token)

    def test_dead_pid_skipped_silently(self):
        token = sampler_mod.register_pids_provider(lambda: [2**22 + 1])
        try:
            sampler_mod.ResourceSampler(interval=60.0).sample_once(
                registry=MetricsRegistry()
            )
        finally:
            sampler_mod.unregister_pids_provider(token)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            sampler_mod.ResourceSampler(interval=0.0)

    def test_start_samples_immediately_and_stop_joins(self):
        with obs.scope(fresh=True) as (metrics, _tracer):
            sampler = sampler_mod.ResourceSampler(interval=30.0)
            with sampler:
                # start() records one pass before the thread ticks, so
                # gauges exist from the first scrape on.
                assert (
                    metrics.to_dict()["gauges"]["process.resident_bytes"] > 0
                )
            assert sampler._thread is None


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_keeps_only_the_newest_entries(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(7):
            recorder.record_event("tick", index=index)
        events = recorder.snapshot()["events"]
        assert [e["index"] for e in events] == [4, 5, 6]
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_attach_captures_closed_spans_until_detach(self):
        with obs.scope(fresh=True):
            recorder = FlightRecorder(capacity=8).attach()
            with obs.span("flight.unit", batch=1):
                pass
            recorder.detach()
            with obs.span("flight.after_detach"):
                pass
        spans = recorder.snapshot()["spans"]
        assert [s["name"] for s in spans] == ["flight.unit"]
        assert spans[0]["args"] == {"batch": 1}
        assert spans[0]["duration_ms"] >= 0.0
        assert spans[0]["pid"] == os.getpid()

    def test_dump_bundle_schema(self, tmp_path):
        with obs.scope(fresh=True) as (metrics, _tracer):
            metrics.counter("annotator.documents").inc()
            recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
            recorder.record_event("boot", workers=2)
            path = recorder.dump(reason="unit")
            bundle = json.loads(path.read_text())
        assert path.name.startswith("flight-") and path.name.endswith(
            "-unit.json"
        )
        assert bundle["reason"] == "unit"
        assert bundle["pid"] == os.getpid()
        assert bundle["capacity"] == 4
        assert bundle["events"][0]["kind"] == "boot"
        assert bundle["metrics"]["counters"]["annotator.documents"] == 1
        assert bundle["created_unix"] > 0

    def test_sigusr2_dumps_a_bundle(self, tmp_path):
        previous = signal.getsignal(signal.SIGUSR2)
        recorder = FlightRecorder(dump_dir=tmp_path)
        assert recorder.install_signal_handler() is True
        try:
            recorder.record_event("inflight")
            os.kill(os.getpid(), signal.SIGUSR2)
            deadline = time.monotonic() + 5.0
            dumps = []
            while not dumps and time.monotonic() < deadline:
                dumps = list(tmp_path.glob("flight-*-sigusr2.json"))
                time.sleep(0.01)
            assert dumps, "SIGUSR2 did not produce a flight dump"
            bundle = json.loads(dumps[0].read_text())
            assert bundle["reason"] == "sigusr2"
            assert bundle["events"][-1]["kind"] == "inflight"
        finally:
            recorder.uninstall_signal_handler()
        assert signal.getsignal(signal.SIGUSR2) == previous

    def test_crash_hook_dumps_then_chains(self, tmp_path):
        chained = []
        original = sys.excepthook
        sys.excepthook = lambda *args: chained.append(args)
        try:
            recorder = FlightRecorder(dump_dir=tmp_path)
            recorder.install_crash_handler()
            recorder.install_crash_handler()  # idempotent
            error = ValueError("boom")
            sys.excepthook(ValueError, error, None)
            dumps = list(tmp_path.glob("flight-*-crash.json"))
            assert len(dumps) == 1
            bundle = json.loads(dumps[0].read_text())
            assert bundle["events"][-1]["kind"] == "crash"
            assert "boom" in bundle["events"][-1]["error"]
            # The previous hook still ran with the original exception.
            assert len(chained) == 1 and chained[0][1] is error
            recorder.uninstall_crash_handler()
            assert sys.excepthook is not original  # our stub is back
        finally:
            sys.excepthook = original


# ----------------------------------------------------------------------
# Pool live telemetry (shared fixtures mirror tests/test_parallel.py)
# ----------------------------------------------------------------------
needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_entities=120, seed=7))


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, CorpusConfig(num_pages=30, seed=7))


@pytest.fixture(scope="module")
def annotator(world, corpus):
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    model = BootlegModel(
        BootlegConfig(num_candidates=4, dropout=0.0),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )
    model.eval()
    return BootlegAnnotator(
        model,
        vocab,
        world.candidate_map,
        world.kb,
        kgs=[world.kg],
        num_candidates=4,
        batch_size=4,
    )


@pytest.fixture(scope="module")
def texts(corpus, annotator):
    candidates = [
        detokenize(list(s.tokens)) for s in corpus.sentences("test")[:12]
    ]
    kept = [t for t in candidates if annotator.detect_mentions(tokenize(t))]
    assert len(kept) >= 6, "test corpus must yield mention-bearing texts"
    return (kept * 3)[:18]


@contextmanager
def _live_pool(annotator, workers=2):
    """Observed pool shipping its telemetry after every task."""
    with obs.scope(fresh=True) as (metrics, tracer):
        with compute_dtype(np.float32):
            pool = AnnotatorPool.from_annotator(
                annotator, workers=workers, telemetry_interval=0.0
            )
        assert not pool.serial, "pool fell back to serial unexpectedly"
        try:
            yield pool, metrics
        finally:
            pool.close()


def _chunk_counts(metrics):
    """Owner-registry ``parallel.pool.chunks`` per worker rank."""
    counts = {}
    for key, value in metrics.to_dict()["counters"].items():
        name, labels = parse_metric_key(key)
        if name == "parallel.pool.chunks" and "worker" in labels:
            counts[int(labels["worker"])] = value
    return counts


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@needs_shm
class TestPoolLiveTelemetry:
    def test_worker_series_visible_mid_run(self, annotator, texts):
        with _live_pool(annotator) as (pool, metrics):
            with compute_dtype(np.float32):
                pool.annotate_batch(texts[:8], chunk_size=2)
            # Shipments are merged into the owner registry on arrival,
            # so its worker series exist while the pool is still open.
            workers = _chunk_counts(metrics)
            assert workers, "no worker shipment reached the owner"
            histograms = metrics.to_dict()["histograms"]
            for rank in workers:
                assert (
                    f"parallel.pool.chunk_seconds{{worker={rank}}}"
                    in histograms
                )
            text = render_prometheus(metrics.to_dict())
            assert "parallel_pool_chunk_seconds{" in text
            assert 'worker="' in text
            assert pool.health()["ok"] is True
            assert pool.health()["workers_alive"] == 2
            assert len(pool.worker_pids()) == 2
            # The pool registered itself on the global health registry.
            report = exporter.health.check()
            assert report["components"]["pool"]["ok"] is True
        # Closing unregisters everything again.
        assert "pool" not in exporter.health.check()["components"]

    def test_single_chunk_snapshot_visible_when_call_returns(
        self, annotator, texts
    ):
        # Regression: workers queued a task's shipment after its result,
        # and a call returns on its last result, so after a one-chunk
        # call the owner missed the only task that ran.
        with _live_pool(annotator) as (pool, metrics):
            with compute_dtype(np.float32):
                pool.annotate_batch(texts[:4], chunk_size=4)
            counts = _chunk_counts(metrics)
            assert len(counts) == 1, "the chunk's shipment missed the call"
            assert sum(counts.values()) == 1

    def test_every_shipment_merged_exactly_once(self, annotator, texts):
        # More workers than a 2-vCPU box has cores, so shipments from
        # different workers arrive interleaved.
        with _live_pool(annotator, workers=3) as (pool, metrics):
            with compute_dtype(np.float32):
                pool.annotate_batch(texts, chunk_size=1)
            # 18 texts plan to 5 batches of 4, one batch per task.
            dispatched = metrics.counter("parallel.pool.tasks").value
            assert dispatched == 5
            # Workers ship before their results, so the owner has every
            # chunk the moment the call returns...
            assert sum(_chunk_counts(metrics).values()) == dispatched
            # ...scrapes read it without merging anything themselves...
            with TelemetryServer(port=0) as server:
                first = _get(server.url + "/metrics")
                second = _get(server.url + "/metrics")
            assert first[0] == 200 and first == second
            # ...and the final shipments at close add nothing twice.
            pool.close()
            assert sum(_chunk_counts(metrics).values()) == dispatched

    def test_sigkill_flips_health_unhealthy(self, annotator, texts):
        with _live_pool(annotator) as (pool, _metrics):
            with compute_dtype(np.float32):
                pool.annotate_batch(texts[:4], chunk_size=2)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(lambda: not pool.health()["ok"])
            health = pool.health()
            assert health["workers_alive"] == 1
            assert health["workers"] == 2
            assert exporter.health.check()["ok"] is False

    def test_dead_worker_telemetry_recovered(self, annotator, texts):
        # Regression: a worker SIGKILLed after doing work must still be
        # represented in the owner metrics — what it shipped (interval=0
        # ships after every task) was merged on arrival, so missing its
        # final shipment loses nothing it had shipped.
        with _live_pool(annotator) as (pool, metrics):
            with compute_dtype(np.float32):
                pool.annotate_batch(texts[:12], chunk_size=2)
            shipped = set(_chunk_counts(metrics))
            assert shipped, "no worker shipment reached the owner"
            victim = sorted(shipped)[0]
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            assert _wait_until(
                lambda: not pool._procs[victim].is_alive()
            )
            pool.close()
            histograms = metrics.to_dict()["histograms"]
            key = f"parallel.pool.chunk_seconds{{worker={victim}}}"
            assert key in histograms, sorted(histograms)
            assert histograms[key]["count"] >= 1

    def test_serial_pool_reports_serial_health(self, annotator, texts):
        with obs.scope(fresh=True) as (metrics, _tracer):
            pool = AnnotatorPool.from_annotator(annotator, workers=1)
            try:
                assert pool.serial
                assert pool.health() == {
                    "ok": True, "serial": True, "workers": 0,
                }
                pool.annotate_batch(texts[:4])
                assert _chunk_counts(metrics) == {}
                assert pool.worker_pids() == []
            finally:
                pool.close()

    def test_unobserved_pool_registers_nothing(self, annotator, texts):
        # No shipments and no merges: the owner records nothing at all.
        assert obs.enabled is False
        obs.reset()
        with compute_dtype(np.float32):
            pool = AnnotatorPool.from_annotator(
                annotator, workers=2, telemetry_interval=0.0
            )
        try:
            assert "pool" not in exporter.health.check()["components"]
            with compute_dtype(np.float32):
                pool.annotate_batch(texts[:8], chunk_size=2)
        finally:
            pool.close()
        assert obs.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert obs.tracer.roots == []


# ----------------------------------------------------------------------
# CLI wiring: --serve-metrics / --sample-interval / --flight-dir
# ----------------------------------------------------------------------
class TestCliLiveFlags:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_live")
        world_path = root / "world.npz"
        corpus_path = root / "corpus.npz"
        model_path = root / "model.npz"
        assert cli.main([
            "generate-world", "--entities", "80", "--out", str(world_path),
        ]) == 0
        assert cli.main([
            "generate-corpus", "--world", str(world_path), "--pages", "25",
            "--out", str(corpus_path),
        ]) == 0
        assert cli.main([
            "train", "--world", str(world_path), "--corpus", str(corpus_path),
            "--epochs", "1", "--out", str(model_path),
        ]) == 0
        return root, world_path, corpus_path, model_path

    def test_evaluate_serves_and_tears_down(self, artifacts, capsys):
        root, world_path, corpus_path, model_path = artifacts
        sigusr2_before = signal.getsignal(signal.SIGUSR2)
        code = cli.main([
            "evaluate", "--world", str(world_path),
            "--corpus", str(corpus_path), "--model", str(model_path),
            "--split", "val", "--workers", "2",
            "--serve-metrics", "0", "--sample-interval", "0.05",
            "--flight-dir", str(root / "flight"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry endpoint at http://127.0.0.1:" in err
        # Everything live is torn down before the CLI returns: obs
        # disabled, probes and sources unregistered, SIGUSR2 restored.
        assert obs.enabled is False
        assert exporter.health.check()["components"] == {}
        assert sampler_mod._gauge_sources == {}
        assert sampler_mod._pids_providers == {}
        assert signal.getsignal(signal.SIGUSR2) == sigusr2_before
        # The workers' shipments were merged into the owner registry.
        assert any(
            key.startswith("parallel.pool.chunks{worker=")
            for key in obs.metrics.to_dict()["counters"]
        )

    def test_flags_off_by_default(self, artifacts):
        root, world_path, corpus_path, model_path = artifacts
        obs.reset()
        code = cli.main([
            "evaluate", "--world", str(world_path),
            "--corpus", str(corpus_path), "--model", str(model_path),
            "--split", "val",
        ])
        assert code == 0
        assert obs.enabled is False
        assert obs.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
