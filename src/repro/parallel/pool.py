"""Persistent multiprocess annotator pool.

The serial fast path (PR 1) saturates one core; this pool fans chunks of
work out to N worker processes that share one copy of the heavy state:

- the parent exports every model parameter plus the static entity
  payload cache into one shared-memory block (:mod:`repro.parallel.shm`);
- each worker rebuilds the model and its annotator from a picklable
  :class:`WorkerSpec` (config + KB + vocabulary + annotator settings),
  then points every parameter at a zero-copy read-only view of the
  shared block — N workers, one payload;
- one dispatcher serves ``annotate_batch`` and ``predict_sentences``:
  it takes the owner annotator's batch plan, splits it into tasks of
  whole planned batches, round-robins them over per-worker task queues,
  and reassembles results in input order; each worker answers on its
  own result channel, so a worker that dies part-way through a reply
  cannot block the others;
- when observing, each task's reply carries what the task recorded
  (metrics, spans, decision records), merged into the owner as the
  reply is read, so a call's worker telemetry is in when it returns;
- a crashed worker is respawned and its in-flight tasks are retried
  once before a structured :class:`~repro.errors.ParallelError` is
  raised.

Determinism contract: each worker's annotator re-plans the sentences of
a task to exactly the planned batches it was sent, so parallel output
is byte-identical to the serial path for any worker count and chunking
(verified in ``tests/test_parallel.py``), and every decision, tier 0
included, is made and recorded in a worker.

When ``workers <= 1``, shared memory is unavailable, or the workers
fail to start, the pool degrades to the in-process serial path
transparently; every call site keeps working.
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
# Times a task lost with a dead worker is resubmitted before it fails.
_MAX_RETRIES = 1
# Seconds to wait for a worker's ready handshake before giving up on the
# parallel path and falling back to serial execution.
_STARTUP_TIMEOUT = 60.0
_RESULT_POLL_SECONDS = 0.2
# Seconds to read the channels at shutdown while the workers exit.
_SHUTDOWN_TIMEOUT = 10.0

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
# Worker specification
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkerSpec:
    """Everything a worker needs to rehydrate a read-only annotator.

    Fully picklable; the heavy arrays travel via ``manifest`` (shared
    memory), not the pickle stream.
    """

    model_config: dict
    kb: object
    vocab: object
    manifest: ShmManifest
    compute_dtype: str
    candidate_map: object
    kgs: list
    num_candidates: int
    max_alias_tokens: int
    batch_size: int
    # CascadePolicy when the source annotator runs the tiered cascade;
    # plain picklable dataclass, workers rebuild their own Tier0Linker.
    cascade: object | None
    # Captured from obs.enabled when the pool starts: workers run a
    # process-local obs scope around task execution and ship what each
    # task recorded inside its reply.
    observe: bool
    # Captured from provenance.active when the pool starts: workers
    # record into a process-local provenance recorder, drained into the
    # same shipments; the owner stores the rows under worker={rank}.
    provenance: bool


def _restore_payload_store(model, attached: AttachedArrays) -> None:
    """Rebuild the owner's payload store against shared state (zero-copy).

    When the manifest carries a store descriptor, the worker restores
    the store from its shm-resident component arrays (dense/tiered) or
    by re-opening the shard files (mmap — pages are shared through the
    OS page cache, not the shm block). Without one the owner had no
    payload built, and the worker builds its own on first use.
    """
    from repro.store import restore_from_export

    store_meta = attached.manifest.store
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
    if model.embedder.static_cache_ready:
        store = model.embedder.payload_store
        store_meta = store.export_meta()
        for key, array in store.export_arrays().items():
            arrays[f"store.{key}"] = array
    return arrays, store_meta


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerRuntime:
    """Worker-side state: the rehydrated model/annotator plus shm views."""

    def __init__(self, spec: WorkerSpec) -> None:
        from repro.core.annotator import BootlegAnnotator
        from repro.core.model import BootlegConfig, BootlegModel
        from repro.nn.tensor import compute_dtype, no_grad

        self._no_grad = no_grad
        self._compute_dtype = compute_dtype
        self._dtype = np.dtype(spec.compute_dtype)
        # multiprocessing children share the parent's resource tracker
        # under every start method (the tracker fd travels in the spawn
        # prep data), so the attach-side registration of bpo-39959 is a
        # no-op for workers and unregistering would strip the owner's
        # entry instead.
        self.attached = AttachedArrays(spec.manifest, unregister_tracker=False)
        # No entity counts: mask probabilities only matter in training
        # mode, and every parameter is overwritten by a shared view.
        self.model = BootlegModel(
            BootlegConfig(**spec.model_config), spec.kb, spec.vocab
        )
        params = dict(self.model.named_parameters())
        shared = {
            key[len("param."):]
            for key in self.attached.manifest.keys()
            if key.startswith("param.")
        }
        if shared != set(params):
            raise ParallelError(
                "manifest parameters differ from the rebuilt model's: "
                f"missing {sorted(set(params) - shared)!r}, "
                f"unknown {sorted(shared - set(params))!r}"
            )
        for name in shared:
            params[name].data = self.attached[f"param.{name}"]
            params[name].grad = None
        self.model.eval()
        _restore_payload_store(self.model, self.attached)
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

    def run(self, kind: str, payload):
        with self._no_grad(), self._compute_dtype(self._dtype):
            if kind == "annotate":
                texts, spans, sentence_ids = payload
                return self.annotator.annotate_batch(
                    texts, spans, sentence_ids=sentence_ids
                )
            if kind == "predict_sentences":
                from repro.corpus.dataset import encodable_mentions

                # One record list per sentence, so the owner reassembles
                # both task kinds alike.
                records = iter(self.annotator.predict_sentences(payload))
                return [
                    [next(records) for _ in encodable_mentions(sentence)]
                    for sentence in payload
                ]
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
    with another process. A message is ``(status, rank, task_id,
    payload, seconds, shipment)``: the shipment is what the task
    recorded when observing (:func:`take_shipment`), else ``None``.
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
        results.send(
            ("init_error", worker_id, -1, traceback.format_exc(), 0.0, None)
        )
        return
    if spec.observe:
        # Worker-side obs scope: chunk execution records into this
        # process's registry/tracer (reset again so rehydration noise is
        # excluded).
        obs.reset()
        obs.enable()
        if spec.provenance:
            # Records ship to the owner, which writes the audit.
            provenance.enable()
    observing = obs.enabled
    results.send(("ready", worker_id, -1, None, 0.0, None))
    while True:
        task = tasks.get()
        if task is None:
            break
        task_id, kind, payload = task
        start = time.perf_counter()
        try:
            with obs.span("parallel.pool.chunk", task=task_id, kind=kind):
                outcome = runtime.run(kind, payload)
        except BaseException:
            if observing:
                obs.metrics.counter("parallel.pool.chunk_errors").inc()
            status, outcome, elapsed = "error", traceback.format_exc(), 0.0
        else:
            status, elapsed = "ok", time.perf_counter() - start
            if observing:
                obs.metrics.counter("parallel.pool.chunks").inc()
                obs.metrics.histogram("parallel.pool.chunk_seconds").observe(
                    elapsed
                )
        shipment = take_shipment() if observing else None
        reply = (status, worker_id, task_id, outcome, elapsed, shipment)
        if kind == "die_mid_reply":
            _die_mid_reply(results, reply)
        results.send(reply)


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

    Build one with :meth:`from_annotator`; use it as a context manager
    or call :meth:`close` explicitly. Every public method falls back to
    the owner annotator's serial path when the pool is degraded
    (``workers <= 1``, shared memory unavailable, startup failure).
    """

    def __init__(
        self,
        annotator,
        workers: int,
        *,
        start_method: str | None = None,
    ) -> None:
        from repro.nn.tensor import get_compute_dtype

        self.workers = max(int(workers), 0)
        self._annotator = annotator
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
    ) -> "AnnotatorPool":
        """Pool sharing the payloads of an existing serial annotator."""
        return cls(annotator, workers, start_method=start_method)

    def _build_spec(self) -> WorkerSpec:
        annotator = self._annotator
        model = annotator.model
        embedder = model.embedder
        if (
            model.payload_cache_enabled
            and not embedder.static_cache_ready
            and not embedder.config.use_title_feature
        ):
            # Build the static payload cache once in the parent so every
            # worker attaches it instead of paying a private rebuild.
            from repro.nn.tensor import compute_dtype

            with compute_dtype(self._compute):
                embedder.build_static_cache()
        arrays, store_meta = _export_arrays(model)
        self._store = SharedArrayStore.export(arrays, store_meta=store_meta)
        return WorkerSpec(
            model_config=dataclasses.asdict(model.config),
            kb=model.kb,
            vocab=model.vocab,
            manifest=self._store.manifest,
            compute_dtype=self._compute.str,
            candidate_map=annotator.candidate_map,
            kgs=list(annotator.kgs),
            num_candidates=annotator.num_candidates,
            max_alias_tokens=annotator.max_alias_tokens,
            batch_size=annotator.batch_size,
            cascade=annotator.cascade,
            observe=obs.enabled,
            provenance=obs.enabled and provenance.active,
        )

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

        This is the one place a message comes off a channel, so each
        reply's telemetry shipment is merged here, exactly once, under
        the worker's rank: it counts whether or not its result is still
        wanted. A channel that reads as closed (the worker exited), or
        that ends inside a message (the worker died mid-reply), is
        closed: nothing more can arrive on it.
        """
        channel = self._channels.get(worker_id)
        messages: list[tuple] = []
        if channel is None:
            return messages
        try:
            while channel.poll():
                message = channel.recv()
                if message[-1] is not None:
                    merge_telemetry(message[-1], worker=worker_id)
                messages.append(message[:-1])
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
                # Reading merges the telemetry of replies it left
                # behind; their results belong to a call that returned.
                self._read(worker_id)
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
                if task.retries >= _MAX_RETRIES:
                    failures[task.task_id] = (
                        f"worker {worker_id} died (exit code {exitcode}) and "
                        f"the retry budget ({_MAX_RETRIES}) is exhausted"
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

    def worker_pids(self) -> list[int]:
        """Pids of currently live workers."""
        return [
            process.pid
            for process in self._procs
            if process is not None and process.is_alive()
        ]

    # -- public API -----------------------------------------------------
    def annotate_batch(
        self,
        texts: Sequence[str],
        mention_spans: Sequence[list[tuple[int, int]] | None] | None = None,
        chunk_size: int | None = None,
    ) -> list:
        """Disambiguate many documents across the pool, in input order.

        The owner parses the texts, recording nothing; bad input raises
        the serial path's :class:`~repro.errors.ConfigError` before
        anything is dispatched, on an empty call too. A task sends its
        documents' texts, detected spans and call-global sentence ids,
        so workers skip detection; see :meth:`_dispatch` for the rest.
        """
        annotator = self._annotator
        if self.serial:
            return self._serial(annotator.annotate_batch, texts, mention_spans)
        sentences = annotator.parse(texts, mention_spans)
        if not sentences:
            return []
        return self._dispatch(
            "parallel.annotate_batch",
            "annotate",
            sentences,
            lambda docs: (
                [texts[i] for i in docs],
                [[(m.start, m.end) for m in sentences[i].mentions] for i in docs],
                docs,
            ),
            chunk_size,
        )

    def predict_sentences(self, sentences: Sequence) -> list:
        """Prediction records for labelled sentences, across the pool.

        The pooled :meth:`BootlegAnnotator.predict_sentences` (what
        ``repro evaluate --workers`` scores): tasks carry the sentences
        themselves, each worker's annotator runs them through its own
        ``predict_sentences``, and the records come back in the serial
        call's sentence-then-mention order.
        """
        annotator = self._annotator
        if self.serial:
            return self._serial(annotator.predict_sentences, sentences)
        sentences = list(sentences)
        per_sentence = self._dispatch(
            "parallel.predict_sentences",
            "predict_sentences",
            sentences,
            lambda docs: [sentences[i] for i in docs],
        )
        return [record for records in per_sentence for record in records]

    def _serial(self, call: Callable, *args):
        from repro.nn.tensor import compute_dtype

        with compute_dtype(self._compute):
            return call(*args)

    def _dispatch(
        self,
        span: str,
        kind: str,
        sentences: list,
        payload: Callable[[list[int]], object],
        chunk_size: int | None = None,
    ) -> list:
        """Run the owner's batch plan for ``sentences`` on the workers.

        Takes the owner annotator's batch plan
        (:meth:`BootlegAnnotator.plan`), which records nothing. Each
        task carries ``chunk_size`` whole planned batches (by default,
        enough for about ``_CHUNKS_PER_WORKER`` tasks per worker); each
        worker's first task also carries an even share of the sentences
        no batch holds (mention-free, or answered at tier 0). A task's
        ``payload(docs)`` holds its sentence indices in input order, and
        the worker's annotator re-plans them to exactly the planned
        batches, so the output is byte-identical to the serial path's.
        Returns the workers' per-sentence results in input order.
        """
        batches = self._annotator.plan(sentences)
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
        unplanned = [i for i in range(len(sentences)) if i not in planned]
        if unplanned:
            # Task w goes to worker w (round-robin dispatch).
            groups += [[] for _ in range(self.workers - len(groups))]
            for worker_id in range(self.workers):
                groups[worker_id] += unplanned[worker_id :: self.workers]
        docs_per_task = [sorted(group) for group in groups if group]
        tasks = [
            _Task(task_id=task_id, kind=kind, payload=payload(docs))
            for task_id, docs in enumerate(docs_per_task)
        ]
        with obs.span(span, documents=len(sentences), chunks=len(tasks)):
            parts = self._execute(tasks)
        results: list = [None] * len(sentences)
        for docs, part in zip(docs_per_task, parts):
            for doc, result in zip(docs, part):
                results[doc] = result
        return results

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: drain workers, release shared memory."""
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def _teardown(self) -> None:
        for worker_id, process in enumerate(self._procs):
            if process is None:
                continue
            try:
                self._task_queues[worker_id].put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        self._drain_channels()
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

    def _drain_channels(self) -> None:
        """Read every channel until its worker exits.

        A worker exits on the shutdown sentinel, which closes its
        channel. Reading unblocks a worker whose last reply still fills
        its channel and merges the telemetry of replies no call waited
        for (a retried task's duplicate); their results are dropped.
        """
        deadline = time.monotonic() + _SHUTDOWN_TIMEOUT
        while self._channels and time.monotonic() < deadline:
            try:
                self._get(_RESULT_POLL_SECONDS)
            except _queue.Empty:
                pass

    def __enter__(self) -> "AnnotatorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
