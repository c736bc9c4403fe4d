"""Process-pool transport: chunks over an executor, payloads in shm rings.

:class:`ProcessPoolBackend` is the :mod:`repro.engine.sharded` protocol
carried by a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
on this machine — the backend that scales CPU-bound scheduling past one
core.  The world snapshot ships once per worker through the pool
initializer.  An encoded chunk delta is parked in a
:class:`~repro.engine.shm.SlotRing` slot the parent writes and workers
read; the encoded trace shard comes back through a second ring workers
write and the parent reads; only a tiny :class:`ShmPayload` descriptor
crosses the executor pipe.  A payload that outgrows ``slot_bytes``, or
meets a momentarily full ring, crosses the pipe itself instead — the
*same bytes*, inline, with no size limit and no blocking acquire.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

from repro.engine.sharded import ShardedBackend, run_chunk
from repro.engine.shm import RingSpec, SlotRing
from repro.engine.snapshot import WorldSnapshot
from repro.scheduling.qgreedy import QValuePredictor
from repro.spec import LabelingSpec

logger = logging.getLogger("repro.engine.process")


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


def _park(ring: SlotRing, lock, payload: bytes) -> ShmPayload | bytes:
    """Park ``payload`` in a free slot of ``ring``, else hand it back.

    ``lock`` serializes acquirers of this ring.  The bytes come back
    unparked — to travel inline — when they outgrow a slot or every slot
    is held right now; nothing here ever waits for a slot.
    """
    if len(payload) <= ring.slot_bytes:
        with lock:
            slot = ring.acquire()
        if slot is not None:
            ring.write(slot, payload)
            return ShmPayload(slot, len(payload))
    return payload


def _contents(ring: SlotRing, payload: ShmPayload | bytes) -> memoryview | bytes:
    """``payload``'s bytes: read in place when it is parked in ``ring``."""
    if isinstance(payload, ShmPayload):
        return ring.view(payload.slot, payload.length)
    return payload


def _carrier(payload: ShmPayload | bytes) -> str:
    return "shm" if isinstance(payload, ShmPayload) else "inline"


def _release(ring: SlotRing, payload: ShmPayload | bytes | None) -> None:
    """Free the slot ``payload`` is parked in, if it is parked in one."""
    if isinstance(payload, ShmPayload):
        ring.release(payload.slot)


#: Per-worker-process state set by the pool initializer: ``(truth,
#: predictor, delta ring, result ring, result-ring acquirer lock)``.
_WORKER: tuple | None = None


def _process_worker_init(
    snapshot: WorldSnapshot,
    delta_spec: RingSpec,
    result_spec: RingSpec,
    result_lock,
) -> None:
    """Pool initializer: restore the world and attach the rings, once."""
    global _WORKER
    truth, predictor = snapshot.restore()
    _WORKER = (truth, predictor, delta_spec.attach(), result_spec.attach(), result_lock)


def _process_worker_chunk(
    item_ids: tuple[str, ...], delta: ShmPayload | bytes, spec: LabelingSpec
) -> tuple[int, ShmPayload | bytes, float]:
    """Run one chunk inside a worker; returns (pid, trace shard, seconds).

    ``delta`` is the chunk's encoded records, inline or parked in the
    delta ring (read in place; the parent holds that slot until this
    chunk's future resolves).  The shard returns the same two ways.
    """
    truth, predictor, delta_ring, result_ring, result_lock = _WORKER
    records_buf = _contents(delta_ring, delta)
    shard, seconds = run_chunk(truth, predictor, item_ids, spec, records_buf)
    return os.getpid(), _park(result_ring, result_lock, shard), seconds


class ProcessPoolBackend(ShardedBackend):
    """Scheduling sharded over worker *processes* — escapes the GIL.

    The protocol (snapshot once, chunk deltas, serial-parity traces,
    world affinity) is :class:`~repro.engine.sharded.ShardedBackend`'s;
    this class is the executor and the two rings.  A chunk that raises
    fails its job while the pool stays alive for the next one; a worker
    that *dies* raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, after which
    the pool is discarded and the next job respawns it.

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()``).
    chunk_size:
        Items per worker task.  Default shards the job evenly across
        workers (``ceil(n_items / max_workers)``); smaller chunks trade
        per-chunk overhead for better balance on skewed items.
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
    ring_slots / slot_bytes:
        Geometry of each shared-memory ring (default: ``4x max_workers``
        slots of 1 MiB).  Oversized or overflow payloads travel inline
        through the executor pipe, so undersizing costs speed, never
        correctness.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        mp_context=None,
        ring_slots: int | None = None,
        slot_bytes: int = 1 << 20,
    ):
        self.check_fields(
            max_workers=max_workers,
            chunk_size=chunk_size,
            ring_slots=ring_slots,
            slot_bytes=slot_bytes,
        )
        super().__init__(chunk_size)
        self.max_workers = max_workers or os.cpu_count() or 1
        self.mp_context = mp_context
        self.ring_slots = ring_slots or 4 * self.max_workers
        self.slot_bytes = slot_bytes
        self._pool: ProcessPoolExecutor | None = None
        #: Parent-written delta ring / worker-written result ring.
        self._delta_ring: SlotRing | None = None
        self._result_ring: SlotRing | None = None
        #: Serializes delta-slot acquisition among parent threads.
        self._delta_lock = threading.Lock()

    @staticmethod
    def check_fields(
        *,
        max_workers: int | None,
        chunk_size: int | None,
        ring_slots: int | None,
        slot_bytes: int,
        **unchecked,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        ShardedBackend.check_fields(chunk_size=chunk_size)
        if ring_slots is not None and ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")

    def refresh(self, predictor: QValuePredictor) -> None:
        """Drop the pool so the next job ships a snapshot of ``predictor``.

        Workers restore the world once at pool spawn, so new weights
        mean a new snapshot; closing is how this backend invalidates.
        (The cluster backend does the same hot-swap without a respawn.)
        """
        self.close()

    # -- transport hooks -----------------------------------------------------

    def _connect(self) -> tuple[tuple[ProcessPoolExecutor, SlotRing, SlotRing], int]:
        if self._pool is None:
            ctx = self.mp_context or multiprocessing.get_context()
            self._delta_ring = SlotRing.create(self.ring_slots, self.slot_bytes)
            self._result_ring = SlotRing.create(self.ring_slots, self.slot_bytes)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self.mp_context,
                initializer=_process_worker_init,
                initargs=(
                    self._snapshot,
                    self._delta_ring.spec,
                    self._result_ring.spec,
                    ctx.Lock(),
                ),
            )
        return (self._pool, self._delta_ring, self._result_ring), self.max_workers

    def _disconnect(self) -> None:
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
                for process in list(getattr(self._pool, "_processes", None) or {}):
                    worker = self._pool._processes.get(process)
                    if worker is not None and worker.is_alive():
                        worker.kill()
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        # Rings outlive the pool shutdown (workers hold attachments until
        # they exit), then the parent unlinks the segments.
        for ring in (self._delta_ring, self._result_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        self._delta_ring = None
        self._result_ring = None

    def _exchange(self, session, shards, spec, deliver) -> None:
        pool, delta_ring, result_ring = session
        #: (future, the parked delta it reads in place if any), in chunk order.
        tickets: list[tuple[Future, ShmPayload | None]] = []
        collected = 0
        try:
            for chunk, delta in shards:
                if delta:
                    delta = _park(delta_ring, self._delta_lock, delta)
                    self._carried("delta", _carrier(delta))
                future = pool.submit(_process_worker_chunk, chunk, delta, spec)
                tickets.append(
                    (future, delta if isinstance(delta, ShmPayload) else None)
                )
            for index, (future, delta) in enumerate(tickets):
                pid, shard, seconds = future.result()
                collected = index + 1
                _release(delta_ring, delta)
                try:
                    deliver(index, pid, _contents(result_ring, shard), seconds)
                finally:
                    _release(result_ring, shard)
                self._carried("result", _carrier(shard))
        except BaseException as exc:
            # Nobody will collect the remaining chunks: free what each
            # holds — its delta slot, and the result slot it fills if it
            # finishes anyway — once it can no longer touch either.
            for future, delta in tickets[collected:]:
                future.cancel()
                future.add_done_callback(
                    partial(_abandon, delta, delta_ring, result_ring)
                )
            if isinstance(exc, BrokenProcessPool):
                # A worker died mid-chunk; the pool is unusable.  Drop it
                # so the next job respawns cleanly (rings included).
                logger.warning(
                    "process pool broke mid-job; closing it so the next job "
                    "respawns workers"
                )
                self.close()
            raise


def _abandon(
    delta: ShmPayload | None, delta_ring: SlotRing, result_ring: SlotRing, done: Future
) -> None:
    """Done-callback for a chunk whose job already failed: free its slots."""
    _release(delta_ring, delta)
    if not done.cancelled() and done.exception() is None:
        _release(result_ring, done.result()[1])
