"""Live-telemetry smoke test: scrape a pooled evaluate while it runs.

Builds a small synthetic world, trains a 2-epoch checkpoint on a small
corpus, then runs ``repro evaluate --workers 4 --serve-metrics 0`` **as
a subprocess** over the train split of a separate 1,500-page corpus
(~11.5k mentions, several seconds of pooled work even on two cores)
and polls its HTTP endpoint from the outside — the point is proving the
telemetry plane answers while the run is still in flight:

- ``/metrics`` must serve Prometheus-format per-worker series
  (``parallel_pool_chunk_seconds{...worker="N"...}``) and sampler
  gauges (``process_resident_bytes``, ``store_resident_bytes``)
  while the evaluate process is still alive;
- ``/healthz`` must report the ``pool`` component with every worker
  alive and the ``store`` component ready, mid-run.

Exits 0 with a skip note on machines without POSIX shared memory (the
pool would degrade to serial and there would be nothing live to
scrape). This is the ``make obs-live-demo`` target, part of
``make check``.

Usage::

    PYTHONPATH=src python benchmarks/obs_live_demo.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.cli import main as repro_main
from repro.parallel import shared_memory_available

# Pages of the evaluated corpus: enough work that the pooled evaluate
# outlives several scrapes on a 2-vCPU machine (the 90-page training
# corpus's val split finishes in under a second there).
_EVAL_PAGES = 1500

_URL_PATTERN = re.compile(r"telemetry endpoint at (http://[^/\s]+)/metrics")
_WORKER_SERIES = re.compile(
    r'parallel_pool_chunk_seconds\{[^}]*worker="(\d+)"'
)


def _run(step: str, argv: list[str]) -> None:
    print(f"==> repro {' '.join(argv)}")
    code = repro_main(argv)
    if code != 0:
        raise SystemExit(f"step {step!r} failed with exit code {code}")


def _scrape(url: str) -> str | None:
    try:
        with urllib.request.urlopen(url, timeout=2.0) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        # /healthz answers 503 with a full JSON body when unhealthy;
        # that is still a scrape worth inspecting.
        return error.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entities", type=int, default=120)
    parser.add_argument("--pages", type=int, default=90)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=240.0)
    args = parser.parse_args(argv)

    if not shared_memory_available():
        print("obs-live-demo: skipped (POSIX shared memory unavailable; "
              "the pool would run serial with nothing live to scrape)")
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-obs-live-") as tmp:
        world = str(Path(tmp) / "world.npz")
        corpus = str(Path(tmp) / "corpus.npz")
        eval_corpus = str(Path(tmp) / "eval_corpus.npz")
        model = str(Path(tmp) / "model.npz")
        _run("generate-world", [
            "generate-world", "--entities", str(args.entities),
            "--seed", "0", "--out", world,
        ])
        _run("generate-corpus", [
            "generate-corpus", "--world", world, "--pages", str(args.pages),
            "--seed", "0", "--weak-label", "--out", corpus,
        ])
        _run("train", [
            "train", "--world", world, "--corpus", corpus,
            "--epochs", "2", "--seed", "0", "--out", model,
        ])
        _run("generate-eval-corpus", [
            "generate-corpus", "--world", world,
            "--pages", str(_EVAL_PAGES), "--seed", "1", "--out", eval_corpus,
        ])

        eval_argv = [
            sys.executable, "-m", "repro.cli", "evaluate",
            "--world", world, "--corpus", eval_corpus, "--model", model,
            "--split", "train", "--workers", str(args.workers),
            "--batch-size", "4", "--store", "tiered",
            "--serve-metrics", "0", "--sample-interval", "0.2",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        print(f"==> {' '.join(eval_argv)}")
        process = subprocess.Popen(
            eval_argv, stderr=subprocess.PIPE, text=True, env=env
        )

        # The CLI prints the ephemeral endpoint URL on stderr at setup;
        # a reader thread keeps draining so the child never blocks on a
        # full pipe.
        stderr_lines: list[str] = []

        def _drain() -> None:
            assert process.stderr is not None
            for line in process.stderr:
                stderr_lines.append(line)

        reader = threading.Thread(target=_drain, daemon=True)
        reader.start()

        base_url: str | None = None
        saw_workers: set[str] = set()
        saw_process_gauge = False
        saw_store_gauge = False
        saw_pool_health = False
        deadline = time.monotonic() + args.timeout
        try:
            while time.monotonic() < deadline and process.poll() is None:
                if base_url is None:
                    for line in list(stderr_lines):
                        match = _URL_PATTERN.search(line)
                        if match:
                            base_url = match.group(1)
                            print(f"scraping {base_url}")
                            break
                    if base_url is None:
                        time.sleep(0.05)
                        continue
                metrics = _scrape(base_url + "/metrics")
                # Everything asserted below was observed while poll()
                # was None a moment ago — i.e. mid-run.
                if metrics is not None and process.poll() is None:
                    saw_workers.update(_WORKER_SERIES.findall(metrics))
                    saw_process_gauge = saw_process_gauge or (
                        "process_resident_bytes" in metrics
                    )
                    saw_store_gauge = saw_store_gauge or (
                        "store_resident_bytes" in metrics
                    )
                healthz = _scrape(base_url + "/healthz")
                if healthz is not None and process.poll() is None:
                    try:
                        report = json.loads(healthz)
                    except ValueError:
                        report = {}
                    pool = report.get("components", {}).get("pool")
                    if pool and pool.get("ok") and pool.get(
                        "workers_alive"
                    ) == args.workers:
                        saw_pool_health = True
                done = (
                    len(saw_workers) >= 1
                    and saw_process_gauge
                    and saw_store_gauge
                    and saw_pool_health
                )
                if done:
                    break
                time.sleep(0.05)
        finally:
            process.wait(timeout=args.timeout)
            reader.join(timeout=5.0)

        sys.stderr.write("".join(stderr_lines))
        if process.returncode != 0:
            print(f"obs-live-demo: evaluate exited {process.returncode}")
            return 1
        failures = []
        if not saw_workers:
            failures.append(
                "no parallel_pool_chunk_seconds{worker=...} series were "
                "served mid-run"
            )
        if not saw_process_gauge:
            failures.append("process_resident_bytes gauge never appeared")
        if not saw_store_gauge:
            failures.append("store_resident_bytes gauge never appeared")
        if not saw_pool_health:
            failures.append(
                "/healthz never reported the pool component with all "
                f"{args.workers} workers alive mid-run"
            )
        if failures:
            for failure in failures:
                print(f"obs-live-demo FAILED: {failure}")
            return 1
        print(
            "obs-live-demo OK: live per-worker series "
            f"(workers {sorted(saw_workers)}), sampler gauges, and pool "
            "health were all served mid-run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
