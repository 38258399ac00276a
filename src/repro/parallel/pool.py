"""Persistent multiprocess annotator pool.

The serial fast path (PR 1) saturates one core; this pool fans chunks of
work out to N worker processes that share one copy of the heavy state:

- the parent exports every model parameter plus the static entity
  payload cache into one shared-memory block (:mod:`repro.parallel.shm`);
- each worker rebuilds the model skeleton from a picklable
  :class:`WorkerSpec` (config + KB + vocabulary), then points every
  parameter at a zero-copy read-only view of the shared block — N
  workers, one payload;
- a dispatcher splits ``annotate_batch``/``predict_batches`` calls into
  tasks of whole model batches, round-robins them over per-worker task
  queues, and reassembles results in input order; each worker answers
  on its own result channel, so a worker that dies part-way through a
  reply cannot block the others;
- a crashed worker is respawned and its in-flight tasks are retried
  once before a structured :class:`~repro.errors.ParallelError` is
  raised.

Determinism contract: ``annotate_batch`` takes the owner annotator's
batch plan (:meth:`BootlegAnnotator.plan`) and sends each worker whole
planned batches, which the worker's annotator re-plans to exactly the
same batches — parallel output is byte-identical to the serial path for
any worker count and chunking (verified in ``tests/test_parallel.py``).

When ``workers <= 1``, shared memory is unavailable, or the model type
has no registered factory, the pool degrades to the in-process serial
path transparently; every call site keeps working.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import os
import pickle
import queue as _queue
import struct
import time
import traceback
from collections.abc import Callable, Iterable, Sequence

# The one blessed fork-safety path: everything multiprocessing lives in
# repro.parallel (enforced by lint rule RA613 elsewhere in the tree).
import multiprocessing as _mp
import multiprocessing.connection as _connection

import numpy as np

import repro.obs as obs
from repro.errors import ParallelError
from repro.obs import provenance
from repro.obs.aggregate import merge_telemetry, take_shipment
from repro.parallel.shm import (
    AttachedArrays,
    SharedArrayStore,
    ShmManifest,
    shared_memory_available,
)
from repro.utils.logging import get_logger

logger = get_logger("parallel.pool")

# Dispatcher granularity: aim for this many chunks per worker so a slow
# chunk cannot stall the whole call (work stealing via queue draining is
# intentionally avoided to keep assignment deterministic and debuggable).
_CHUNKS_PER_WORKER = 4
# Seconds to wait for a worker's ready handshake before giving up on the
# parallel path and falling back to serial execution.
_STARTUP_TIMEOUT = 60.0
_RESULT_POLL_SECONDS = 0.2
# Seconds to wait at shutdown for the workers' final shipments.
_TELEMETRY_TIMEOUT = 10.0
# Seconds between worker telemetry shipments (0 ships after every task
# — used by deterministic tests).
_DEFAULT_TELEMETRY_INTERVAL = 2.0

_ENV_START_METHOD = "REPRO_PARALLEL_START_METHOD"


def default_start_method() -> str:
    """``fork`` where available (cheap), else ``spawn``; env-overridable.

    ``REPRO_PARALLEL_START_METHOD`` forces a method — the Makefile
    ``check`` target runs the parallel tests under ``spawn`` explicitly,
    since spawn is the strict superset contract (everything crossing the
    process boundary must pickle; nothing may rely on inherited state).
    """
    override = os.environ.get(_ENV_START_METHOD, "").strip().lower()
    if override:
        return override
    return "fork" if "fork" in _mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Worker specification and model factories
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkerSpec:
    """Everything a worker needs to rehydrate a read-only annotator.

    Fully picklable; the heavy arrays travel via ``manifest`` (shared
    memory), not the pickle stream.
    """

    model_kind: str
    model_config: dict
    kb: object
    vocab: object
    entity_counts: np.ndarray | None
    manifest: ShmManifest
    compute_dtype: str
    # Annotator-side state; None for predict-only pools.
    candidate_map: object | None = None
    kgs: list | None = None
    num_candidates: int = 6
    max_alias_tokens: int = 3
    batch_size: int = 32
    # CascadePolicy when the source annotator runs the tiered cascade;
    # plain picklable dataclass, workers rebuild their own Tier0Linker.
    cascade: object | None = None
    warmup_text: str | None = None
    # multiprocessing children share the parent's resource tracker under
    # every start method (the tracker fd travels in the spawn prep data),
    # so the attach-side registration of bpo-39959 is a no-op for workers
    # and unregistering would strip the owner's entry instead. Only
    # unrelated processes attaching from outside need True.
    unregister_tracker: bool = False
    # Captured from obs.enabled when the pool starts: workers run a
    # process-local obs scope around chunk execution and ship what they
    # recorded since their last shipment back over their result channel —
    # every telemetry_interval seconds while work flows, and once more
    # (marked ``final``) at shutdown.
    observe: bool = False
    telemetry_interval: float = _DEFAULT_TELEMETRY_INTERVAL
    # Captured from provenance.active when the pool starts: workers run
    # a process-local provenance ring, drained into the same shipments;
    # the owner upserts the rows under worker={rank}.
    provenance: bool = False


ModelFactory = Callable[[WorkerSpec], object]

_MODEL_FACTORIES: dict[str, ModelFactory] = {}
_MODEL_KINDS: dict[str, str] = {}  # type name -> factory kind


def register_model_factory(
    kind: str, factory: ModelFactory, model_type: type | None = None
) -> None:
    """Register a worker-side rebuild recipe for a model class.

    ``factory(spec)`` must return a freshly constructed model whose
    ``named_parameters()`` names match the exporting model's exactly —
    the pool overwrites every parameter with a shared view afterwards.
    """
    _MODEL_FACTORIES[kind] = factory
    if model_type is not None:
        _MODEL_KINDS[model_type.__name__] = kind


def _build_bootleg(spec: WorkerSpec):
    from repro.core.model import BootlegConfig, BootlegModel

    return BootlegModel(
        BootlegConfig(**spec.model_config),
        spec.kb,
        spec.vocab,
        entity_counts=spec.entity_counts,
    )


def _model_kind(model) -> str:
    kind = _MODEL_KINDS.get(type(model).__name__)
    if kind is None:
        raise ParallelError(
            f"no worker factory registered for {type(model).__name__}; "
            "register one with repro.parallel.register_model_factory"
        )
    return kind


def _install_bootleg_extras(model, attached: AttachedArrays) -> None:
    """Rebuild the owner's payload store against shared state (zero-copy).

    When the manifest carries a store descriptor, the worker restores
    the store from its shm-resident component arrays (dense/tiered) or
    by re-opening the shard files (mmap — pages are shared through the
    OS page cache, not the shm block). Without one the owner had no
    payload built, and the worker builds its own on first use.
    """
    from repro.store import restore_from_export

    store_meta = getattr(attached.manifest, "store", None)
    if store_meta is not None:
        arrays = {
            key[len("store."):]: attached[key]
            for key in attached.manifest.keys()
            if key.startswith("store.")
        }
        model.embedder.attach_payload_store(
            restore_from_export(store_meta, arrays)
        )


def _export_arrays(model) -> tuple[dict[str, np.ndarray], dict | None]:
    """Collect what a worker must share: params + the payload store.

    Returns the shm array dict plus the store descriptor to embed in
    the manifest. Store component arrays travel under ``store.*`` keys;
    a file-backed store contributes no arrays, only the descriptor.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        arrays[f"param.{name}"] = param.data
    store_meta: dict | None = None
    embedder = getattr(model, "embedder", None)
    if embedder is not None and getattr(embedder, "static_cache_ready", False):
        store = embedder.payload_store
        store_meta = store.export_meta()
        for key, array in store.export_arrays().items():
            arrays[f"store.{key}"] = array
    return arrays, store_meta


def _spec_from_model(model, manifest: ShmManifest, compute: np.dtype) -> WorkerSpec:
    kind = _model_kind(model)
    # entity_counts stays None: mask probabilities only matter in
    # training mode, and workers run eval-only with every parameter
    # overwritten by a shared view anyway.
    return WorkerSpec(
        model_kind=kind,
        model_config=dataclasses.asdict(model.config),
        kb=model.kb,
        vocab=model.vocab,
        entity_counts=None,
        manifest=manifest,
        compute_dtype=np.dtype(compute).str,
    )


register_model_factory("bootleg", _build_bootleg)
# Deferred type registration avoids importing repro.core at module load
# for callers that only want prefetching.
_MODEL_KINDS["BootlegModel"] = "bootleg"


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerRuntime:
    """Worker-side state: the rehydrated model/annotator plus shm views."""

    def __init__(self, spec: WorkerSpec) -> None:
        from repro.nn.tensor import compute_dtype, no_grad

        self._no_grad = no_grad
        self._compute_dtype = compute_dtype
        self._dtype = np.dtype(spec.compute_dtype)
        self.attached = AttachedArrays(
            spec.manifest, unregister_tracker=spec.unregister_tracker
        )
        factory = _MODEL_FACTORIES.get(spec.model_kind)
        if factory is None:
            raise ParallelError(f"unknown model kind {spec.model_kind!r}")
        self.model = factory(spec)
        params = dict(self.model.named_parameters())
        for key in self.attached.manifest.keys():
            if key.startswith("param."):
                name = key[len("param."):]
                if name not in params:
                    raise ParallelError(
                        f"manifest parameter {name!r} not present on the "
                        "rebuilt model"
                    )
                params[name].data = self.attached[key]
                params[name].grad = None
        missing = set(params) - {
            key[len("param."):]
            for key in self.attached.manifest.keys()
            if key.startswith("param.")
        }
        if missing:
            raise ParallelError(
                f"manifest is missing parameters: {sorted(missing)!r}"
            )
        self.model.eval()
        if spec.model_kind == "bootleg":
            _install_bootleg_extras(self.model, self.attached)
        self.annotator = None
        if spec.candidate_map is not None:
            from repro.core.annotator import BootlegAnnotator

            self.annotator = BootlegAnnotator(
                self.model,
                spec.vocab,
                spec.candidate_map,
                spec.kb,
                kgs=spec.kgs,
                num_candidates=spec.num_candidates,
                max_alias_tokens=spec.max_alias_tokens,
                batch_size=spec.batch_size,
                cascade=spec.cascade,
            )
        self.warmup(spec)

    def warmup(self, spec: WorkerSpec) -> None:
        """Touch the hot path once so first-request latency is warm."""
        if self.annotator is not None and spec.warmup_text:
            try:
                with self._compute_dtype(self._dtype):
                    self.annotator.annotate_batch([spec.warmup_text])
            except Exception:  # pragma: no cover - warmup is best effort
                pass

    def run(self, kind: str, payload):
        with self._no_grad(), self._compute_dtype(self._dtype):
            if kind == "annotate":
                texts, spans, sentence_ids = payload
                if self.annotator is None:
                    raise ParallelError("pool was built without an annotator")
                return self.annotator.annotate_batch(
                    texts, spans, sentence_ids=sentence_ids
                )
            if kind == "predict":
                from repro.core.trainer import predict_batches as serial_predict

                return serial_predict(self.model, payload)
            if kind == "crash":  # test hook: simulate a hard worker death
                os._exit(3)
            if kind == "die_mid_reply":  # test hook, see _worker_main
                return payload
            raise ParallelError(f"unknown task kind {kind!r}")


def _die_mid_reply(results, reply) -> None:
    """Test hook: write the first half of ``reply``'s message, then die.

    Writes the length header of a whole ``Connection.send`` message and
    half its bytes, as a worker killed during a large send would leave
    them.
    """
    data = pickle.dumps(reply)
    header = struct.pack("!i", len(data))
    os.write(results.fileno(), header + data[: len(data) // 2])
    os._exit(3)


def _worker_main(worker_id: int, spec: WorkerSpec, tasks, results) -> None:
    """Entry point of one worker process.

    ``results`` is the write end of this worker's own result channel;
    every message is written whole by this thread, so no lock is shared
    with another process.
    """
    # Fresh telemetry state: under fork the child inherits the parent's
    # recorded metrics and enabled flag, which must not leak into (or be
    # double-counted by) the worker's own stream.
    obs.disable()
    obs.reset()
    provenance.reset()
    try:
        runtime = _WorkerRuntime(spec)
    except BaseException:
        results.send(("init_error", worker_id, -1, traceback.format_exc(), 0.0))
        return
    if spec.observe:
        # Worker-side obs scope: chunk execution records into this
        # process's registry/tracer (reset again so rehydration/warmup
        # noise is excluded).
        obs.reset()
        obs.enable()
        if spec.provenance:
            # Ring only, no spill: records ship to the owner, which
            # owns the spill file.
            provenance.enable()
    results.send(("ready", worker_id, -1, None, 0.0))
    # Shipping state. Each shipment carries what was recorded since the
    # previous one, so ``dirty`` skips empty shipments: an idle worker
    # stays quiet until it records something new.
    ship_interval = max(0.0, float(spec.telemetry_interval))
    last_ship = time.monotonic()
    dirty = False

    def _ship(final: bool = False) -> None:
        nonlocal last_ship, dirty
        shipment = take_shipment()
        shipment["final"] = final
        results.send(("telemetry", worker_id, -1, shipment, 0.0))
        last_ship = time.monotonic()
        dirty = False

    while True:
        if spec.observe:
            try:
                task = tasks.get(
                    timeout=max(ship_interval, _RESULT_POLL_SECONDS)
                )
            except _queue.Empty:
                if dirty:
                    _ship()
                continue
        else:
            task = tasks.get()
        if task is None:
            break
        task_id, kind, payload = task
        observing = obs.enabled
        start = time.perf_counter()
        try:
            with obs.span("parallel.pool.chunk", task=task_id, kind=kind):
                outcome = runtime.run(kind, payload)
        except BaseException:
            if observing:
                obs.metrics.counter("parallel.pool.chunk_errors").inc()
                dirty = True
            reply = ("error", worker_id, task_id, traceback.format_exc(), 0.0)
        else:
            elapsed = time.perf_counter() - start
            if observing:
                obs.metrics.counter("parallel.pool.chunks").inc()
                obs.metrics.histogram("parallel.pool.chunk_seconds").observe(
                    elapsed
                )
                dirty = True
            reply = ("ok", worker_id, task_id, outcome, elapsed)
        if dirty and time.monotonic() - last_ship >= ship_interval:
            # Ship before the result: the owner stops reading once the
            # last result of a call arrives, so a shipment queued after
            # it would leave owner state missing this task until the
            # next call.
            _ship()
        if kind == "die_mid_reply":
            _die_mid_reply(results, reply)
        results.send(reply)
    if spec.observe:
        obs.disable()
        _ship(final=True)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Task:
    task_id: int
    kind: str
    payload: object
    retries: int = 0


class AnnotatorPool:
    """A persistent pool of annotator worker processes.

    Build one with :meth:`from_annotator` (serving) or
    :meth:`from_model` (batch prediction); use it as a context manager
    or call :meth:`close` explicitly. All public methods fall back to
    the serial in-process path when the pool is degraded
    (``workers <= 1``, shared memory unavailable, startup failure).
    """

    def __init__(
        self,
        workers: int,
        *,
        annotator=None,
        model=None,
        start_method: str | None = None,
        max_retries: int = 1,
        telemetry_interval: float | None = None,
    ) -> None:
        if annotator is None and model is None:
            raise ParallelError("AnnotatorPool needs an annotator or a model")
        from repro.nn.tensor import get_compute_dtype

        self.workers = max(int(workers), 0)
        self.max_retries = max_retries
        self.telemetry_interval = (
            _DEFAULT_TELEMETRY_INTERVAL
            if telemetry_interval is None
            else max(0.0, float(telemetry_interval))
        )
        self._annotator = annotator
        self._model = model if model is not None else annotator.model
        self._compute = np.dtype(get_compute_dtype())
        self._start_method = start_method or default_start_method()
        self._store: SharedArrayStore | None = None
        self._spec: WorkerSpec | None = None
        self._ctx = None
        self._procs: list = []
        self._task_queues: list = []
        # Worker rank -> read end of its result channel, while open, and
        # the messages read from the channels but not yet handled.
        self._channels: dict[int, object] = {}
        self._inbox: collections.deque = collections.deque()
        self._closed = False
        # Sampler/health registrations held while open and observed.
        self._pids_token: int | None = None
        self._health_registry = None
        self.serial = True
        if self.workers > 1 and shared_memory_available():
            try:
                self._start()
                self.serial = False
            except ParallelError as error:
                logger.warning(
                    "parallel pool unavailable (%s); falling back to the "
                    "serial in-process path",
                    error,
                )
                self._teardown()
        if obs.enabled:
            obs.metrics.gauge("parallel.pool.workers").set(
                0.0 if self.serial else float(self.workers)
            )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_annotator(
        cls,
        annotator,
        workers: int,
        start_method: str | None = None,
        telemetry_interval: float | None = None,
    ) -> "AnnotatorPool":
        """Pool sharing the payloads of an existing serial annotator."""
        return cls(
            workers,
            annotator=annotator,
            start_method=start_method,
            telemetry_interval=telemetry_interval,
        )

    @classmethod
    def from_model(
        cls,
        model,
        workers: int,
        start_method: str | None = None,
        telemetry_interval: float | None = None,
    ) -> "AnnotatorPool":
        """Predict-only pool (no mention detection / candidate map)."""
        return cls(
            workers,
            model=model,
            start_method=start_method,
            telemetry_interval=telemetry_interval,
        )

    def _build_spec(self) -> WorkerSpec:
        model = self._model
        embedder = getattr(model, "embedder", None)
        if (
            embedder is not None
            and getattr(model, "payload_cache_enabled", False)
            and not getattr(embedder, "static_cache_ready", False)
            and not getattr(embedder.config, "use_title_feature", False)
        ):
            # Build the static payload cache once in the parent so every
            # worker attaches it instead of paying a private rebuild.
            from repro.nn.tensor import compute_dtype

            with compute_dtype(self._compute):
                embedder.build_static_cache()
        arrays, store_meta = _export_arrays(model)
        self._store = SharedArrayStore.export(arrays, store_meta=store_meta)
        spec = _spec_from_model(model, self._store.manifest, self._compute)
        spec.observe = obs.enabled
        spec.telemetry_interval = self.telemetry_interval
        spec.provenance = obs.enabled and provenance.active
        annotator = self._annotator
        if annotator is not None:
            spec.candidate_map = annotator.candidate_map
            spec.kgs = list(annotator.kgs)
            spec.num_candidates = annotator.num_candidates
            spec.max_alias_tokens = annotator.max_alias_tokens
            spec.batch_size = annotator.batch_size
            spec.cascade = annotator.cascade
        return spec

    def _start(self) -> None:
        try:
            self._ctx = _mp.get_context(self._start_method)
        except ValueError as error:
            raise ParallelError(
                f"unknown start method {self._start_method!r}"
            ) from error
        self._spec = self._build_spec()
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        self._await_ready(range(self.workers))
        self._register_live()

    def _spawn_worker(self, worker_id: int) -> None:
        """Start worker ``worker_id`` with a fresh result channel.

        A respawn discards the dead worker's channel, with whatever it
        left unread. The owner keeps only the read end, so the channel
        reads as closed once the worker exits.
        """
        while len(self._task_queues) <= worker_id:
            self._task_queues.append(self._ctx.Queue())
        self._close_channel(worker_id)
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._spec, self._task_queues[worker_id], writer),
            daemon=True,
            name=f"repro-annotator-{worker_id}",
        )
        try:
            process.start()
        finally:
            writer.close()
        self._channels[worker_id] = reader
        while len(self._procs) <= worker_id:
            self._procs.append(None)
        self._procs[worker_id] = process

    def _close_channel(self, worker_id: int) -> None:
        channel = self._channels.pop(worker_id, None)
        if channel is not None:
            channel.close()

    def _read(self, worker_id: int) -> list[tuple]:
        """Every whole message waiting on ``worker_id``'s channel.

        A channel that reads as closed (the worker exited), or that
        ends inside a message (the worker died mid-reply), is closed:
        nothing more can arrive on it.
        """
        channel = self._channels.get(worker_id)
        messages: list[tuple] = []
        if channel is None:
            return messages
        try:
            while channel.poll():
                messages.append(channel.recv())
        except (EOFError, OSError):
            self._close_channel(worker_id)
        return messages

    def _get(self, timeout: float) -> tuple:
        """The next worker message; ``queue.Empty`` if none came in time.

        Reads every channel that turns readable within ``timeout``
        seconds into the inbox, then hands messages out one at a time.
        """
        if not self._inbox:
            ready = _connection.wait(list(self._channels.values()), timeout)
            for worker_id, channel in list(self._channels.items()):
                if channel in ready:
                    self._inbox.extend(self._read(worker_id))
        if not self._inbox:
            raise _queue.Empty
        return self._inbox.popleft()

    def _await_ready(self, worker_ids: Iterable[int]) -> None:
        pending = set(worker_ids)
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ParallelError(
                    f"workers {sorted(pending)} did not become ready within "
                    f"{_STARTUP_TIMEOUT:.0f}s"
                )
            try:
                status, worker_id, _, payload, _ = self._get(
                    min(remaining, _RESULT_POLL_SECONDS)
                )
            except _queue.Empty:
                for worker_id in list(pending):
                    process = self._procs[worker_id]
                    if process is not None and not process.is_alive():
                        raise ParallelError(
                            f"worker {worker_id} died during startup "
                            f"(exit code {process.exitcode})"
                        )
                continue
            if status == "init_error":
                raise ParallelError(f"worker {worker_id} failed to start:\n{payload}")
            if status == "ready":
                pending.discard(worker_id)
            elif status == "telemetry":
                # Every shipment is merged once, wherever it is read.
                merge_telemetry(payload, worker=worker_id)

    # -- dispatch -------------------------------------------------------
    def _execute(self, tasks: list[_Task]) -> list:
        """Run tasks on the pool; returns payloads ordered by task_id."""
        observing = obs.enabled
        results: dict[int, object] = {}
        in_flight: dict[int, dict[int, _Task]] = {
            worker_id: {} for worker_id in range(self.workers)
        }
        failures: dict[int, str] = {}
        self._revive_dead_workers()
        for index, task in enumerate(tasks):
            worker_id = index % self.workers
            in_flight[worker_id][task.task_id] = task
            self._task_queues[worker_id].put(
                (task.task_id, task.kind, task.payload)
            )
        outstanding = len(tasks)
        if observing:
            obs.metrics.counter("parallel.pool.tasks").inc(outstanding)
            obs.metrics.gauge("parallel.pool.queue_depth").set(float(outstanding))
        while outstanding:
            try:
                status, worker_id, task_id, payload, elapsed = self._get(
                    _RESULT_POLL_SECONDS
                )
            except _queue.Empty:
                outstanding -= self._reap_dead_workers(in_flight, failures)
                continue
            if status == "ok":
                if in_flight[worker_id].pop(task_id, None) is None:
                    # Duplicate delivery: a queued task survived a worker
                    # crash in the queue AND was resubmitted as a retry.
                    continue
                results[task_id] = payload
                outstanding -= 1
                self._beat()
                if observing:
                    obs.metrics.histogram("parallel.pool.chunk_seconds").observe(
                        elapsed
                    )
                    obs.metrics.gauge("parallel.pool.queue_depth").set(
                        float(outstanding)
                    )
            elif status == "error":
                # A Python exception inside a task is deterministic;
                # don't retry, surface it once everything else drains.
                if in_flight[worker_id].pop(task_id, None) is None:
                    continue
                failures[task_id] = payload
                outstanding -= 1
                if observing:
                    obs.metrics.counter("parallel.pool.task_failures").inc()
            elif status == "telemetry":
                merge_telemetry(payload, worker=worker_id)
                self._beat()
                continue
            elif status == "init_error":
                # A respawned worker failed to reinitialize; everything
                # assigned to it is undeliverable.
                logger.warning(
                    "worker %d failed to reinitialize:\n%s", worker_id, payload
                )
                for tid in list(in_flight[worker_id]):
                    del in_flight[worker_id][tid]
                    failures[tid] = (
                        f"worker {worker_id} failed to reinitialize:\n{payload}"
                    )
                    outstanding -= 1
            # "ready" handshakes from respawned workers need no action.
        if failures:
            first = min(failures)
            raise ParallelError(
                f"{len(failures)} pool task(s) failed; task {first}:\n"
                f"{failures[first]}",
                task_errors=failures,
            )
        return [results[task.task_id] for task in tasks]

    def _revive_dead_workers(self) -> None:
        """Respawn workers that died between dispatch calls."""
        for worker_id, process in enumerate(self._procs):
            if process is not None and not process.is_alive():
                # Shipments it left behind still count; stale results
                # do not.
                for status, _, _, payload, _ in self._read(worker_id):
                    if status == "telemetry":
                        merge_telemetry(payload, worker=worker_id)
                logger.warning(
                    "worker %d found dead (exit code %s); respawning",
                    worker_id, process.exitcode,
                )
                self._spawn_worker(worker_id)
                if obs.enabled:
                    obs.metrics.counter("parallel.pool.worker_restarts").inc()

    def _reap_dead_workers(
        self,
        in_flight: dict[int, dict[int, _Task]],
        failures: dict[int, str],
    ) -> int:
        """Respawn dead workers; retry or fail their in-flight tasks.

        Returns how many tasks were abandoned (retry budget exhausted);
        retried tasks stay outstanding on the respawned worker. The
        respawn is fire-and-forget — the new worker's "ready" handshake
        is absorbed by the `_execute` result loop, never awaited here,
        so results streaming in from healthy workers are not dropped.
        """
        abandoned = 0
        for worker_id, process in enumerate(self._procs):
            if process is None or process.is_alive():
                continue
            leftovers = self._read(worker_id)
            if leftovers:
                # Settle what it wrote before dying first; it is reaped
                # on a later quiet poll.
                self._inbox.extend(leftovers)
                continue
            exitcode = process.exitcode
            lost = list(in_flight[worker_id].values())
            in_flight[worker_id].clear()
            logger.warning(
                "worker %d died (exit code %s) with %d task(s) in flight; "
                "respawning",
                worker_id, exitcode, len(lost),
            )
            # The dead worker's queue may still hold tasks it never
            # started; the respawned worker drains them because queues
            # outlive processes. Only a task the worker was *running* is
            # truly lost, but which one is unknowable from here, so every
            # lost task is resubmitted and duplicate deliveries are
            # dropped by the result loop.
            self._spawn_worker(worker_id)
            if obs.enabled:
                obs.metrics.counter("parallel.pool.worker_restarts").inc()
            for task in lost:
                if task.retries >= self.max_retries:
                    failures[task.task_id] = (
                        f"worker {worker_id} died (exit code {exitcode}) and "
                        f"the retry budget ({self.max_retries}) is exhausted"
                    )
                    abandoned += 1
                    continue
                task.retries += 1
                in_flight[worker_id][task.task_id] = task
                self._task_queues[worker_id].put(
                    (task.task_id, task.kind, task.payload)
                )
                if obs.enabled:
                    obs.metrics.counter("parallel.pool.retries").inc()
        return abandoned

    # -- live telemetry plane -------------------------------------------
    def _register_live(self) -> None:
        """Plug this pool into the sampler and health registries.

        Only while observing — a non-observed pool ships no telemetry,
        so registering would only pull in ``http.server`` for nothing.
        Lazy imports keep the exporter out of plain pool usage.
        """
        if self._spec is None or not self._spec.observe:
            return
        from repro.obs import exporter, sampler

        self._pids_token = sampler.register_pids_provider(self.worker_pids)
        exporter.health.register("pool", self.health)
        self._health_registry = exporter.health
        self._health_registry.beat("pool")

    def _unregister_live(self) -> None:
        if self._health_registry is None:
            return
        from repro.obs import sampler

        if self._pids_token is not None:
            sampler.unregister_pids_provider(self._pids_token)
            self._pids_token = None
        self._health_registry.unregister("pool", self.health)
        self._health_registry = None

    def _beat(self) -> None:
        if self._health_registry is not None:
            self._health_registry.beat("pool")

    def worker_pids(self) -> list[int]:
        """Pids of currently live workers (for the resource sampler)."""
        return [
            process.pid
            for process in self._procs
            if process is not None and process.is_alive()
        ]

    def health(self) -> dict:
        """Readiness probe for /healthz: every worker process alive."""
        if self.serial:
            return {"ok": not self._closed, "serial": True, "workers": 0}
        expected = sum(1 for p in self._procs if p is not None)
        alive = len(self.worker_pids())
        return {
            "ok": not self._closed and expected > 0 and alive == expected,
            "serial": False,
            "workers": expected,
            "workers_alive": alive,
        }

    # -- public API -----------------------------------------------------
    def annotate_batch(
        self,
        texts: Sequence[str],
        mention_spans: Sequence[list[tuple[int, int]] | None] | None = None,
        chunk_size: int | None = None,
    ) -> list:
        """Disambiguate many documents across the pool, in input order.

        The owner parses the texts and takes its annotator's batch plan
        (:meth:`BootlegAnnotator.plan`), recording nothing; bad input
        raises the serial path's :class:`~repro.errors.ConfigError`
        before anything is dispatched, on an empty call too. Each task
        carries ``chunk_size`` whole planned batches (by default, enough
        for about ``_CHUNKS_PER_WORKER`` tasks per worker); each worker's
        first task also carries an even share of the documents no batch
        holds. A task sends its documents' texts, spans and call-global
        sentence ids in input order, and the worker's annotator
        re-plans them to exactly the planned batches, so the output is
        byte-identical to the serial path's.
        """
        if self.serial:
            return self._serial_annotate(texts, mention_spans)
        annotator = self._annotator
        if annotator is None:
            raise ParallelError("pool was built without an annotator")
        sentences = annotator.parse(texts, mention_spans)
        if not sentences:
            return []
        batches = annotator.plan(sentences)
        per_task = (
            max(1, chunk_size)
            if chunk_size is not None
            else max(
                1, math.ceil(len(batches) / (self.workers * _CHUNKS_PER_WORKER))
            )
        )
        groups = [
            [index for batch in batches[start : start + per_task] for index in batch]
            for start in range(0, len(batches), per_task)
        ]
        planned = {index for batch in batches for index in batch}
        unplanned = [index for index in range(len(texts)) if index not in planned]
        if unplanned:
            # Task w goes to worker w (round-robin dispatch).
            groups += [[] for _ in range(self.workers - len(groups))]
            for worker_id in range(self.workers):
                groups[worker_id] += unplanned[worker_id :: self.workers]
        tasks = []
        for group in groups:
            if not group:
                continue
            docs = sorted(group)
            spans = [[(m.start, m.end) for m in sentences[i].mentions] for i in docs]
            tasks.append(
                _Task(
                    task_id=len(tasks),
                    kind="annotate",
                    payload=([texts[i] for i in docs], spans, docs),
                )
            )
        with obs.span("parallel.annotate_batch", documents=len(texts), chunks=len(tasks)):
            parts = self._execute(tasks)
        results: list = [None] * len(texts)
        for task, part in zip(tasks, parts):
            for doc, annotations in zip(task.payload[2], part):
                results[doc] = annotations
        return results

    def _serial_annotate(self, texts, mention_spans):
        if self._annotator is None:
            raise ParallelError("pool was built without an annotator")
        from repro.nn.tensor import compute_dtype

        with compute_dtype(self._compute):
            return self._annotator.annotate_batch(texts, mention_spans)

    def predict_batches(self, batches: Iterable) -> list:
        """Shard whole batches across the pool; ordered reassembly.

        Each batch is snapshot-copied as it is consumed, so iterators
        built on reused :class:`CollateBuffers` are safe to pass.
        """
        if self.serial:
            from repro.core.trainer import predict_batches as serial_predict
            from repro.nn.tensor import compute_dtype

            with compute_dtype(self._compute):
                return serial_predict(self._model, batches)
        snapshots = [_snapshot_batch(batch) for batch in batches]
        if not snapshots:
            return []
        per_chunk = max(
            1,
            math.ceil(len(snapshots) / (self.workers * _CHUNKS_PER_WORKER)),
        )
        tasks = [
            _Task(
                task_id=i,
                kind="predict",
                payload=snapshots[start : start + per_chunk],
            )
            for i, start in enumerate(range(0, len(snapshots), per_chunk))
        ]
        with obs.span("parallel.predict_batches", batches=len(snapshots), chunks=len(tasks)):
            chunk_results = self._execute(tasks)
        records: list = []
        for part in chunk_results:
            records.extend(part)
        return records

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: drain workers, release shared memory."""
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def _teardown(self) -> None:
        self._unregister_live()
        for worker_id, process in enumerate(self._procs):
            if process is None:
                continue
            try:
                self._task_queues[worker_id].put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        self._drain_final_shipments()
        for process in self._procs:
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        self._procs = []
        for q in self._task_queues:
            q.close()
            q.cancel_join_thread()
        self._task_queues = []
        for worker_id in list(self._channels):
            self._close_channel(worker_id)
        self._inbox.clear()
        if self._store is not None:
            self._store.close(unlink=True)
            self._store = None

    def _drain_final_shipments(self) -> None:
        """Read every channel until its worker exits, merging shipments.

        Workers ship one ``final``-marked ``("telemetry", rank, ...)``
        message right after the shutdown sentinel, then exit, which
        closes their channel. Everything a worker shipped was merged
        when it arrived, so a worker that crashed without a final
        shipment contributes exactly what it shipped before dying.
        Late "ok"/"error"/"ready" stragglers are dropped: their dispatch
        call has already returned. Reading also unblocks a worker whose
        last reply still fills its channel.
        """
        deadline = time.monotonic() + _TELEMETRY_TIMEOUT
        while (self._channels or self._inbox) and time.monotonic() < deadline:
            try:
                status, worker_id, _, payload, _ = self._get(_RESULT_POLL_SECONDS)
            except _queue.Empty:
                continue
            if status == "telemetry":
                merge_telemetry(payload, worker=worker_id)

    def __enter__(self) -> "AnnotatorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _snapshot_batch(batch):
    """Deep-copy a batch's arrays so queue transit outlives buffer reuse."""
    from repro.corpus.dataset import Batch

    return Batch(
        token_ids=np.array(batch.token_ids, copy=True),
        token_pad_mask=np.array(batch.token_pad_mask, copy=True),
        candidate_ids=np.array(batch.candidate_ids, copy=True),
        candidate_mask=np.array(batch.candidate_mask, copy=True),
        mention_mask=np.array(batch.mention_mask, copy=True),
        gold_candidate=np.array(batch.gold_candidate, copy=True),
        gold_entity_ids=np.array(batch.gold_entity_ids, copy=True),
        mention_spans=np.array(batch.mention_spans, copy=True),
        is_weak=np.array(batch.is_weak, copy=True),
        evaluable=np.array(batch.evaluable, copy=True),
        adjacencies=[np.array(adj, copy=True) for adj in batch.adjacencies],
        sentences=list(batch.sentences),
        page_feature=(
            np.array(batch.page_feature, copy=True)
            if batch.page_feature is not None
            else None
        ),
    )


def predict_batches(
    model,
    batches: Iterable,
    workers: int = 1,
    telemetry_interval: float | None = None,
) -> list:
    """Parallel drop-in for :func:`repro.core.trainer.predict_batches`.

    With ``workers <= 1`` (or no usable pool) this is exactly the serial
    function; otherwise batches are sharded across a transient pool and
    the records are returned in serial order. ``telemetry_interval``
    sets the workers' shipment cadence (for live scrapes).
    """
    if workers <= 1 or not shared_memory_available():
        from repro.core.trainer import predict_batches as serial_predict

        return serial_predict(model, batches)
    with AnnotatorPool.from_model(
        model, workers=workers, telemetry_interval=telemetry_interval
    ) as pool:
        return pool.predict_batches(batches)
