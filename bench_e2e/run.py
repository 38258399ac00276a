"""End-to-end and per-layer benchmark of raw-text annotation.

Run from the root of a checkout::

    python3 bench_e2e/run.py --workload bulk_tail_full --seed 1 \\
        --seconds 15 --trace 0

The first run in a checkout prepares, untimed: it generates a
~5,000-entity world and its training corpus and trains the model with
the package's own ``Trainer``, caching them under ``.bench_build/``
per hash of ``src/`` (see ``prepare.py``). Every run then generates
held-out documents from ``--seed``, sets up the annotator several times
(``setup_s`` is the median), makes a reference pass and checks it, and
measures whole passes over the documents for ``--seconds`` seconds
(see ``workload.py``). End-to-end times are scaled to a reference host
speed read from a fixed loop timed around every pass and set-up.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes that record a span around each layer's
public call (``tracing.py``) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run conditions, the workload's input properties and the
output digest. The command exits 1 if any call failed or any
correctness check did not hold, and 2 on bad arguments or when the
package source is missing. On every way out it stops the processes it
started and waits for each to end.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads: with one
# thread per core in every process and pool worker, throughput swung
# by tens of percent between runs. Pool workers inherit the variables.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "bench_e2e" / "results"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if not found."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def l2_bytes():
    """Size of one level-2 cache, from sysfs."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "2":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def child_pids() -> list[int]:
    """Processes whose parent is this one, ended ones included."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended meanwhile
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def stop_child_processes() -> None:
    """Stop every process this run started and wait for each to end.

    ``AnnotatorPool.close()`` joins the pool workers, but the shared
    memory the pool exports starts multiprocessing's resource tracker,
    which nothing waits for: it would end only after this process and
    stay behind unreaped. Closing its pipe ends it; waiting reaps it.
    Any other child still there is killed (the tracker ignores SIGTERM,
    so nothing gentler is sure to end a process) and reaped.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_conditions(workload, seed, trace, prepared):
    """What the run's numbers depend on besides the code under test."""
    import numpy as np

    from repro.parallel.pool import default_start_method

    cpu_model = None
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_THREADS,
        "pool_start_method": default_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu_model,
        "l2_bytes": l2_bytes(),
        "kb_entities": prepared.info["num_entities"],
        "prepare": prepared.info,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workload
    from prepare import FULL, prepare

    if args.workload not in workload.WORKLOADS:
        print(
            f"bench_e2e: unknown workload {args.workload!r}; choose from "
            + ", ".join(workload.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    try:
        prepared = prepare(ROOT, FULL)
        conditions = run_conditions(args.workload, args.seed, args.trace, prepared)
        outcome = workload.run(
            prepared, FULL, args.workload, args.seed, args.seconds,
            bool(args.trace), conditions["l2_bytes"],
        )
    finally:
        stop_child_processes()
    catalog = workload.PER_LAYER if args.trace else workload.END_TO_END
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, (unit, _) in catalog.items()
        },
    }
    record = {"conditions": conditions, **outcome.details}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=1))
    if outcome.tracer is not None:
        outcome.tracer.write(RESULTS / f"{stem}.spans.json")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
