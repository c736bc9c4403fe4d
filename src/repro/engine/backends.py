"""Execution backends: how a batch of items is driven through the loop.

A backend consumes one :class:`LabelingJob` (a batch of recorded items plus
their resolved :class:`~repro.spec.LabelingSpec`) and returns one
:class:`ScheduleTrace` per item.  All backends implement the same per-item
semantics — dispatch on :attr:`LabelingSpec.regime` — and must produce
traces identical to :class:`SerialBackend`, the single-item reference:

* :class:`SerialBackend` — one item at a time, exactly the pre-engine code
  path; the parity baseline.
* :class:`BatchedBackend` — vectorized: all in-flight items advance in
  lock-step rounds, with **one** stacked Q-network forward pass per round
  across the whole batch, in *every* regime — unconstrained, deadline,
  and deadline+memory all delegate to their scheduler's
  ``schedule_batch`` dispatch tick.  Selection per item replays the
  serial rule (masked ``argmax`` with first-index tie-breaking), so
  traces stay identical while network cost is amortized over the batch.
  Caveat: the stacked ``(B, n)`` forward and the serial ``(1, n)``
  forward may differ in the last ULP on some BLAS builds, so exact
  parity additionally assumes no two candidate Q values sit within that
  rounding distance — vanishingly rare with continuous weights, and
  enforced empirically by the parity tests on seeded worlds.
* :class:`ProcessPoolBackend` — scheduling sharded into chunks over a
  persistent :class:`~concurrent.futures.ProcessPoolExecutor`.  A
  picklable :class:`~repro.engine.snapshot.WorldSnapshot` (zoo build
  parameters, recorded item shards, agent ``state_dict``) ships **once per
  worker** through the pool initializer and is reused across jobs; chunks
  of later jobs carry only the records the snapshot lacks.  Workers run
  the vectorized tick per chunk by default, chunk payloads travel through
  :mod:`repro.engine.shm` ring buffers instead of pickle where they fit,
  and chunk sizes adapt online toward a target chunk latency.  This is
  the backend that actually scales CPU-bound scheduling past one core.

Q-network inference is stateless (``train=False`` forwards cache nothing)
and ground-truth records are only read during scheduling, which is what
lets the serving tier's worker threads share one engine without locks.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.engine.shm import (
    RingSpec,
    SlotRing,
    decode_records,
    decode_traces,
    encode_records,
    encode_traces,
)
from repro.engine.snapshot import WorldSnapshot
from repro.scheduling.base import (
    ScheduleTrace,
    run_ordering_policy,
)
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import QGreedyPolicy, QValuePredictor
from repro.spec import LabelingSpec
from repro.zoo.oracle import GroundTruth, ItemRecord

logger = logging.getLogger("repro.engine.backends")


@dataclass(frozen=True)
class LabelingJob:
    """One batch of already-recorded items plus their resolved spec."""

    truth: GroundTruth
    item_ids: tuple[str, ...]
    spec: LabelingSpec = LabelingSpec()

    def __post_init__(self):
        if not isinstance(self.spec, LabelingSpec):
            raise TypeError(
                f"spec must be a LabelingSpec, got {type(self.spec).__name__}"
            )
        missing = [i for i in self.item_ids if i not in self.truth]
        if missing:
            raise KeyError(f"items not recorded in ground truth: {missing[:3]}")


class ExecutionBackend:
    """Interface: drive one job's items through the scheduling loop."""

    #: Registry name, set by subclasses.
    name = "backend"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        """One trace per job item, aligned with ``job.item_ids``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend-held resources (worker pools); default no-op.

        Lifecycle owners (the CLI, the serving tier, benchmarks) call
        this unconditionally when they are done with a backend they
        constructed.
        """

    def refresh(self, predictor: QValuePredictor) -> None:
        """Adopt retrained predictor weights for subsequent jobs.

        In-process backends receive the predictor per :meth:`run` call,
        so the default is a no-op.  Backends that hold worker-side
        copies of the world override this: the process pool drops its
        pool (the next job re-ships a fresh snapshot), the cluster
        backend hot-swaps weights fleet-wide with a control message.
        """


def schedule_one_item(
    job: LabelingJob, predictor: QValuePredictor, item_id: str
) -> ScheduleTrace:
    """The per-item regime dispatch every backend must reproduce."""
    spec = job.spec
    regime = spec.regime
    if regime == "deadline_memory":
        return MemoryDeadlineScheduler(predictor).schedule(
            job.truth, item_id, spec.deadline, spec.memory_budget
        )
    if regime == "deadline":
        return CostQGreedyScheduler(predictor).schedule(
            job.truth, item_id, spec.deadline
        )
    return run_ordering_policy(
        QGreedyPolicy(predictor), job.truth, item_id, max_models=spec.max_models
    )


class SerialBackend(ExecutionBackend):
    """Reference semantics: items one at a time, one forward per step."""

    name = "serial"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        return [
            schedule_one_item(job, predictor, item_id) for item_id in job.item_ids
        ]


class BatchedBackend(ExecutionBackend):
    """Vectorized lock-step rounds with one stacked forward per round.

    Every regime delegates to its scheduler's ``schedule_batch`` dispatch
    tick: round ``k`` of the batch corresponds to step ``k`` of each
    serial run (one selection per item per round; for deadline+memory,
    one pivot wave plus one completion per round), so the observations
    stacked for the round are the very states the serial loop would have
    predicted on.  Selection is a masked argmax over the
    ``(B, n_models)`` score matrix — identical elementwise math and
    first-index tie-breaking as the serial subset argmax, hence
    per-item trace parity with :class:`SerialBackend` (see the module
    docstring for the stacked-forward ULP caveat).  Items leave the
    batch when their serial stop condition fires (budget exhausted, all
    models run, ``max_models`` hit).
    """

    name = "batched"

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        spec = job.spec
        regime = spec.regime
        if regime == "deadline_memory":
            return MemoryDeadlineScheduler(predictor).schedule_batch(
                job.truth, job.item_ids, spec.deadline, spec.memory_budget
            )
        if regime == "deadline":
            return CostQGreedyScheduler(predictor).schedule_batch(
                job.truth, job.item_ids, spec.deadline
            )
        return QGreedyPolicy(predictor).schedule_batch(
            job.truth, job.item_ids, max_models=spec.max_models
        )


@dataclass(frozen=True)
class ShmPayload:
    """Descriptor of bytes parked in a shared-memory ring slot.

    Crosses the process pipe *instead of* the payload it describes: the
    receiver reads the slot in place.  The parent frees both kinds —
    delta slots (which it allocated) once the chunk's future resolves,
    result slots (worker-allocated) right after decoding; releasing is a
    single byte store, safe from any process.
    """

    slot: int
    length: int


#: Module-level worker state: (truth, predictor) restored from the snapshot
#: by the pool initializer, reused for every chunk the worker runs.
_WORKER_WORLD: tuple[GroundTruth, QValuePredictor] | None = None
#: (delta ring, result ring) attached by the initializer; None => pickle.
_WORKER_RINGS: tuple[SlotRing, SlotRing] | None = None
#: Cross-process lock serializing result-slot acquisition among workers.
_WORKER_RESULT_LOCK = None
#: Whether chunks run the vectorized dispatch tick or the serial loop.
_WORKER_VECTORIZED: bool = True


def _process_worker_init(
    snapshot: WorldSnapshot,
    vectorized: bool = True,
    delta_spec: RingSpec | None = None,
    result_spec: RingSpec | None = None,
    result_lock=None,
) -> None:
    """Pool initializer: restore the world once per worker process."""
    global _WORKER_WORLD, _WORKER_RINGS, _WORKER_RESULT_LOCK, _WORKER_VECTORIZED
    _WORKER_WORLD = snapshot.restore()
    _WORKER_VECTORIZED = vectorized
    _WORKER_RESULT_LOCK = result_lock
    if delta_spec is not None and result_spec is not None:
        _WORKER_RINGS = (delta_spec.attach(), result_spec.attach())
    else:
        _WORKER_RINGS = None


def _process_worker_chunk(
    item_ids: tuple[str, ...],
    extras: tuple[ItemRecord, ...] | ShmPayload,
    spec: LabelingSpec,
) -> tuple[int, list[ScheduleTrace] | ShmPayload, float]:
    """Schedule one chunk inside a worker; returns (pid, payload, seconds).

    ``extras`` carries the records the worker's snapshot lacks — items
    recorded by the parent after the snapshot was captured — either as
    pickled :class:`ItemRecord` tuples or as a :class:`ShmPayload`
    pointing at bytes the parent wrote into the delta ring (decoded
    zero-copy; the parent holds that slot until this chunk's future
    resolves).  Records are adopted for this chunk and released
    afterwards so long-lived workers stay bounded at snapshot size.
    Traces return through the result ring whenever they fit a slot,
    falling back to pickle otherwise; the elapsed wall seconds feed the
    parent's adaptive chunk sizing.
    """
    started = time.perf_counter()
    if _WORKER_WORLD is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker initialized without a world snapshot")
    truth, predictor = _WORKER_WORLD
    if isinstance(extras, ShmPayload):
        delta_ring, _ = _WORKER_RINGS
        records: tuple[ItemRecord, ...] | list[ItemRecord] = decode_records(
            delta_ring.view(extras.slot, extras.length), truth.zoo
        )
    else:
        records = extras
    added = truth.adopt(records)
    try:
        job = LabelingJob(truth=truth, item_ids=tuple(item_ids), spec=spec)
        backend = BatchedBackend() if _WORKER_VECTORIZED else SerialBackend()
        traces = backend.run(job, predictor)
    finally:
        truth.release_many(added)
    payload: list[ScheduleTrace] | ShmPayload = traces
    if _WORKER_RINGS is not None:
        _, result_ring = _WORKER_RINGS
        encoded = encode_traces(traces)
        if len(encoded) <= result_ring.slot_bytes:
            with _WORKER_RESULT_LOCK:
                slot = result_ring.acquire()
            if slot is not None:
                result_ring.write(slot, encoded)
                payload = ShmPayload(slot, len(encoded))
    return os.getpid(), payload, time.perf_counter() - started


class ProcessPoolBackend(ExecutionBackend):
    """Per-item scheduling sharded over worker *processes* — escapes the GIL.

    The first :meth:`run` captures a :class:`WorldSnapshot` from the job's
    truth and predictor and spawns a persistent pool whose initializer
    restores the snapshot once per worker.  Later jobs against the same
    world (same zoo and predictor objects, same config) reuse the live
    pool; only records the snapshot lacks are pickled, per chunk, as small
    deltas.  Scheduling is deterministic per item and chunks are
    reassembled in input order, so traces are identical to
    :class:`SerialBackend` for every ``max_workers``/``chunk_size``
    combination — the same parity contract the batched backend
    honors (enforced by the parity tests and the scaling benchmark).

    A chunk that raises (a poisoned item, a predictor bug) fails this
    :meth:`run` with the worker's exception while the pool stays alive for
    the next job; a worker that *dies* raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, after which
    the pool is discarded and the next job respawns it.

    Thread-safe: the serving tier's worker threads may call :meth:`run`
    concurrently (pool submission is locked only around lifecycle).

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()``).
    chunk_size:
        Items per worker task.  Default shards the job evenly across
        workers (``ceil(n_items / max_workers)``) unless
        ``target_chunk_s`` takes over; smaller chunks trade per-chunk
        overhead for better balance on skewed items.
    mp_context:
        Optional :mod:`multiprocessing` context overriding the
        platform-default start method.  The serving tier spawns this pool
        lazily from a worker *thread*; ``fork`` (the Linux default before
        Python 3.14) is fast and keeps stdin/REPL callers working, and
        CPython/OpenBLAS register at-fork handlers for their own locks,
        but callers that hit fork-alongside-threads issues with other
        native libraries should pass
        ``multiprocessing.get_context("forkserver")`` (workers then
        re-import ``__main__``, so scripts need the usual
        ``if __name__ == "__main__"`` guard).
    vectorized:
        Workers run the :class:`BatchedBackend` dispatch tick per chunk
        (default) — one stacked forward per round across the chunk —
        instead of the per-item :class:`SerialBackend` loop.  Traces are
        identical either way; ``False`` exists as the measurable
        baseline for the dispatch-throughput benchmark.
    transport:
        ``"shm"`` (default) parks chunk deltas and returned traces in
        :mod:`repro.engine.shm` ring buffers, sending only tiny slot
        descriptors through the pipe; any payload that cannot take the
        fast path — a custom :class:`ItemRecord` subclass, a payload
        larger than ``slot_bytes``, a momentarily full ring — falls back
        to pickle for that chunk.  ``"pickle"`` disables the rings.
    target_chunk_s:
        Optional adaptive chunk sizing: when set (and ``chunk_size`` is
        not), chunk sizes are resized online toward this many seconds of
        worker wall time per chunk, using an EWMA of worker-reported
        per-item scheduling time (see :attr:`chunk_stats`).  Stragglers
        shrink toward responsive chunks; trivially fast items coalesce
        into fewer, larger chunks.  Never exceeds the even
        ``ceil(n_items / max_workers)`` shard.
    ring_slots / slot_bytes:
        Geometry of each shared-memory ring (default: ``4x max_workers``
        slots of 1 MiB).  Oversized or overflow payloads fall back to
        pickle, so undersizing costs speed, never correctness.
    """

    name = "process"

    #: EWMA smoothing for worker-reported per-item scheduling seconds.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        mp_context=None,
        vectorized: bool = True,
        transport: str = "shm",
        target_chunk_s: float | None = None,
        ring_slots: int | None = None,
        slot_bytes: int = 1 << 20,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if transport not in ("shm", "pickle"):
            raise ValueError(
                f"transport must be 'shm' or 'pickle', got {transport!r}"
            )
        if target_chunk_s is not None and target_chunk_s <= 0:
            raise ValueError("target_chunk_s must be positive")
        if ring_slots is not None and ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.vectorized = vectorized
        self.transport = transport
        self.target_chunk_s = target_chunk_s
        self.ring_slots = ring_slots or 4 * self.max_workers
        self.slot_bytes = slot_bytes
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: Strong refs backing the identity key so ids cannot be recycled.
        self._world: tuple | None = None
        self._world_key: tuple | None = None
        #: Ids whose records shipped with the snapshot (never re-shipped).
        self._shipped_ids: frozenset[str] = frozenset()
        self._dispatch: Counter = Counter()
        #: Jobs currently inside run(); guards world switches (see
        #: :meth:`_ensure_pool`).
        self._active = 0
        #: Parent-written delta ring / worker-written result ring.
        self._delta_ring: SlotRing | None = None
        self._result_ring: SlotRing | None = None
        #: Serializes delta-slot acquisition among parent threads.
        self._delta_lock = threading.Lock()
        #: Per-chunk timing telemetry driving adaptive sizing.
        self._chunk_count = 0
        self._chunk_items = 0
        self._chunk_seconds = 0.0
        self._ewma_item_s: float | None = None
        self._last_chunk_size: int | None = None
        #: Fast-path vs fallback counts per payload direction.
        self._transport_counts: Counter = Counter()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent; respawns on next run)."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._pool is not None:
            if getattr(self._pool, "_broken", False):
                # A worker died mid-job.  CPython's terminate_broken can
                # race a worker that was still spawning when the pool
                # broke: it never receives SIGTERM or an exit sentinel
                # and the manager thread joins it forever (easy to hit
                # under the slow-booting spawn start method).  By the
                # time close() runs no submits are in flight, so the
                # process table is stable — kill every straggler before
                # joining the executor.
                for process in list(
                    getattr(self._pool, "_processes", None) or {}
                ):
                    worker = self._pool._processes.get(process)
                    if worker is not None and worker.is_alive():
                        worker.kill()
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        self._world = None
        self._world_key = None
        self._shipped_ids = frozenset()
        # Rings outlive the pool shutdown (workers hold attachments until
        # they exit), then the parent unlinks the segments.
        for ring in (self._delta_ring, self._result_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        self._delta_ring = None
        self._result_ring = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def refresh(self, predictor: QValuePredictor) -> None:
        """Drop the pool so the next job ships a snapshot of ``predictor``.

        Workers restore the world once at pool spawn, so new weights
        mean a new snapshot; closing is how this backend invalidates.
        (The cluster backend does the same hot-swap without a respawn.)
        """
        self.close()

    @property
    def dispatch_counts(self) -> dict[int, int]:
        """Items scheduled per worker pid, cumulative across jobs."""
        with self._lock:
            return dict(self._dispatch)

    @property
    def chunk_stats(self) -> dict:
        """Per-chunk timing/transport telemetry, cumulative across jobs.

        ``ewma_item_s`` is the smoothed worker-side per-item scheduling
        time driving ``target_chunk_s`` sizing; ``last_chunk_size`` is
        the size the most recent job sharded with; ``transport`` counts
        fast-path vs fallback payloads by direction (``delta_shm`` /
        ``delta_pickle`` / ``result_shm`` / ``result_pickle``).
        """
        with self._lock:
            return {
                "chunks": self._chunk_count,
                "items": self._chunk_items,
                "seconds": self._chunk_seconds,
                "ewma_item_s": self._ewma_item_s,
                "last_chunk_size": self._last_chunk_size,
                "transport": dict(self._transport_counts),
            }

    # -- internals -----------------------------------------------------------

    def _ensure_pool(
        self, truth: GroundTruth, predictor: QValuePredictor
    ) -> tuple[ProcessPoolExecutor, frozenset[str]]:
        """The live pool for this world, (re)spawning when the world changed.

        The key is object identity of the zoo and predictor plus the world
        config: the engine holds both for its lifetime, so steady-state
        serving reuses one pool across every batch, including batches
        labeled against fresh ephemeral truths (same zoo, new records —
        those travel as chunk deltas).

        The backend is *world-affine*: switching worlds (a new predictor,
        a different zoo) tears the pool down and re-ships a snapshot, so
        it is only allowed while no other job is in flight — concurrent
        jobs from different worlds would cancel each other's chunks and
        thrash respawns, and raise instead.  Callers juggling several
        worlds concurrently should give each its own backend.
        """
        key = (id(truth.zoo), id(predictor), truth.config)
        with self._lock:
            if self._pool is not None and self._world_key == key:
                self._active += 1
                return self._pool, self._shipped_ids
            if self._active > 0:
                raise RuntimeError(
                    "ProcessPoolBackend is world-affine: cannot switch to a "
                    "different zoo/predictor while another job is in flight; "
                    "use one backend per world for concurrent use"
                )
            self._close_locked()
            snapshot = WorldSnapshot.capture(truth, predictor)
            initargs: tuple = (snapshot, self.vectorized, None, None, None)
            if self.transport == "shm":
                self._delta_ring = SlotRing.create(self.ring_slots, self.slot_bytes)
                self._result_ring = SlotRing.create(self.ring_slots, self.slot_bytes)
                ctx = self.mp_context or multiprocessing.get_context()
                initargs = (
                    snapshot,
                    self.vectorized,
                    self._delta_ring.spec,
                    self._result_ring.spec,
                    ctx.Lock(),
                )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self.mp_context,
                initializer=_process_worker_init,
                initargs=initargs,
            )
            self._world = (truth.zoo, predictor)
            self._world_key = key
            self._shipped_ids = snapshot.item_ids
            self._active += 1
            return self._pool, self._shipped_ids

    def _chunks(self, item_ids: tuple[str, ...]) -> list[tuple[str, ...]]:
        size = self.chunk_size
        if size is None:
            even = max(1, math.ceil(len(item_ids) / self.max_workers))
            size = even
            if self.target_chunk_s is not None and self._ewma_item_s:
                size = max(
                    1, min(even, round(self.target_chunk_s / self._ewma_item_s))
                )
        self._last_chunk_size = size
        return [
            item_ids[start : start + size] for start in range(0, len(item_ids), size)
        ]

    def _ship_extras(
        self, extras: tuple[ItemRecord, ...]
    ) -> tuple[tuple[ItemRecord, ...] | ShmPayload, int | None]:
        """Park extras in the delta ring; (payload, held slot or None).

        Returns the pickled tuple unchanged (slot ``None``) when the shm
        fast path does not apply: no rings, a non-conforming record, a
        payload larger than a slot, or a momentarily full ring.
        """
        if not extras:
            return extras, None
        if self._delta_ring is None:
            if self.transport == "shm":  # pool alive but rings torn down
                with self._lock:
                    self._transport_counts["delta_pickle"] += 1
            return extras, None
        encoded = encode_records(list(extras))
        if encoded is None or len(encoded) > self._delta_ring.slot_bytes:
            if encoded is not None:
                logger.debug(
                    "delta payload (%d bytes) exceeds shm slot (%d bytes); "
                    "falling back to pickle",
                    len(encoded),
                    self._delta_ring.slot_bytes,
                )
            with self._lock:
                self._transport_counts["delta_pickle"] += 1
            return extras, None
        with self._delta_lock:
            slot = self._delta_ring.acquire()
        if slot is None:
            logger.debug(
                "delta ring momentarily full; falling back to pickle"
            )
            with self._lock:
                self._transport_counts["delta_pickle"] += 1
            return extras, None
        self._delta_ring.write(slot, encoded)
        with self._lock:
            self._transport_counts["delta_shm"] += 1
        return ShmPayload(slot, len(encoded)), slot

    def _receive_traces(
        self,
        payload: list[ScheduleTrace] | ShmPayload,
        chunk: tuple[str, ...],
        truth: GroundTruth,
    ) -> list[ScheduleTrace]:
        """Decode a chunk's traces, freeing its result slot if it used one."""
        if isinstance(payload, ShmPayload):
            ring = self._result_ring
            try:
                traces = decode_traces(
                    ring.view(payload.slot, payload.length),
                    list(chunk),
                    truth.zoo.names,
                )
            finally:
                ring.release(payload.slot)
            with self._lock:
                self._transport_counts["result_shm"] += 1
            return traces
        if self.transport == "shm":
            with self._lock:
                self._transport_counts["result_pickle"] += 1
        return payload

    def _observe_chunk(self, items: int, seconds: float) -> None:
        """Fold one worker-reported chunk timing into the EWMA (locked)."""
        self._chunk_count += 1
        self._chunk_items += items
        self._chunk_seconds += seconds
        per_item = seconds / max(items, 1)
        if self._ewma_item_s is None:
            self._ewma_item_s = per_item
        else:
            self._ewma_item_s += self.EWMA_ALPHA * (per_item - self._ewma_item_s)

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        if len(job.item_ids) <= 1:
            # Not worth a pool round-trip; still counted (under the parent
            # pid) so per-worker telemetry accounts for every item.
            with self._lock:
                self._dispatch[os.getpid()] += len(job.item_ids)
            return SerialBackend().run(job, predictor)
        pool, shipped = self._ensure_pool(job.truth, predictor)
        #: Delta slots still held on behalf of unresolved chunk futures.
        pending_slots: dict = {}
        try:
            futures = []
            for chunk in self._chunks(job.item_ids):
                extras = tuple(
                    job.truth.record(item_id)
                    for item_id in chunk
                    if item_id not in shipped
                )
                payload, slot = self._ship_extras(extras)
                future = pool.submit(_process_worker_chunk, chunk, payload, job.spec)
                if slot is not None:
                    pending_slots[future] = slot
                futures.append((future, chunk))
            traces: list[ScheduleTrace] = []
            try:
                for future, chunk in futures:
                    pid, payload, seconds = future.result()
                    slot = pending_slots.pop(future, None)
                    if slot is not None and self._delta_ring is not None:
                        self._delta_ring.release(slot)
                    chunk_traces = self._receive_traces(payload, chunk, job.truth)
                    with self._lock:
                        self._dispatch[pid] += len(chunk_traces)
                        self._observe_chunk(len(chunk), seconds)
                    traces.extend(chunk_traces)
            except BrokenProcessPool:
                # A worker died mid-chunk; the pool is unusable.  Drop it
                # so the next job respawns cleanly (rings included), then
                # surface the failure.
                logger.warning(
                    "process pool broke mid-job (%d items); closing it so "
                    "the next job respawns workers",
                    len(job.item_ids),
                )
                self.close()
                raise
            except BaseException:
                for future, _ in futures:
                    future.cancel()
                raise
            return traces
        finally:
            if self._delta_ring is not None:
                for slot in pending_slots.values():
                    self._delta_ring.release(slot)
            with self._lock:
                self._active -= 1


# BACKEND_REGISTRY and make_backend live in repro.engine.config: the
# registry maps names to (backend, typed config) pairs and resolution is
# validated eagerly there.  Re-exported from repro.engine for callers.
