"""The sharded-scheduling core: one chunk protocol, any transport.

Scheduling leaves the calling process the same way whether the workers
are pool processes on this box or socket servers on another one:

1. **Snapshot once.**  The first job captures a
   :class:`~repro.engine.snapshot.WorldSnapshot` (zoo build parameters,
   recorded item shards, the predictor) and the transport ships it once
   per worker; later jobs against the same world — same zoo and
   predictor objects, same config — reuse it.
2. **Chunk.**  A job's item ids are cut into chunks, in input order.
3. **Delta down.**  Records the snapshot lacks travel with their chunk as
   :func:`~repro.engine.shm.encode_records` bytes.
4. **Tick.**  The worker calls :func:`run_chunk`: adopt the delta, run
   the vectorized dispatch tick over the chunk, release the delta.
5. **Shard up.**  Traces return as
   :func:`~repro.engine.shm.encode_traces` bytes, are decoded against the
   chunk's ids, reassembled in input order and accounted per worker.

:class:`ShardedBackend` owns all of that, plus the world-affinity guard
and the telemetry (:attr:`~ShardedBackend.dispatch_counts`,
:attr:`~ShardedBackend.chunk_stats`).  A transport subclass —
:class:`~repro.engine.process.ProcessPoolBackend`,
:class:`~repro.engine.cluster.ClusterBackend` — supplies three hooks and
nothing else of the protocol: bring workers up to the snapshot
(``_connect``), drop their copies of it (``_disconnect``), and carry
encoded chunks out and encoded shards back (``_exchange``).  There is one
codec and no fallback: what crosses a process or socket boundary on the
chunk path is always those bytes; only the *carrier* (a ring slot, the
executor pipe, a TCP frame) differs, and ``chunk_stats["transport"]``
counts which one each payload took.

Scheduling is deterministic per item, so traces are identical to
:class:`~repro.engine.backends.SerialBackend` for every transport, worker
count and chunk size.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable

from repro.engine.backends import (
    BatchedBackend,
    ExecutionBackend,
    LabelingJob,
    SerialBackend,
)
from repro.engine.shm import (
    decode_records,
    decode_traces,
    encode_records,
    encode_traces,
)
from repro.engine.snapshot import WorldSnapshot
from repro.scheduling.base import ScheduleTrace
from repro.scheduling.qgreedy import QValuePredictor
from repro.spec import LabelingSpec
from repro.zoo.oracle import GroundTruth

__all__ = ["ShardedBackend", "run_chunk"]


def run_chunk(
    truth: GroundTruth,
    predictor: QValuePredictor,
    item_ids: tuple[str, ...],
    spec: LabelingSpec,
    records_buf: bytes | memoryview,
) -> tuple[bytes, float]:
    """Worker side of the protocol: schedule one chunk against ``truth``.

    ``records_buf`` is the chunk's delta — :func:`encode_records` bytes for
    the items the worker's snapshot lacks, empty when it has them all.
    The decoded records alias the buffer, are adopted for this chunk only
    and released afterwards, so a long-lived worker stays bounded at
    snapshot size and the buffer may be recycled once this returns.
    Returns the :func:`encode_traces` shard and the wall seconds spent.
    """
    started = time.perf_counter()
    records = decode_records(records_buf, truth.zoo) if len(records_buf) else ()
    added = truth.adopt(records)
    try:
        job = LabelingJob(truth=truth, item_ids=tuple(item_ids), spec=spec)
        traces = BatchedBackend().run(job, predictor)
    finally:
        truth.release_many(added)
    return encode_traces(traces), time.perf_counter() - started


class ShardedBackend(ExecutionBackend):
    """Scheduling sharded over workers that hold a snapshot of the world.

    The backend is *world-affine*: the world key is object identity of the
    zoo and predictor plus the world config, which the engine holds for
    its lifetime, so steady-state serving reuses one snapshot across
    every batch — including batches labeled against fresh ephemeral
    truths (same zoo, new records: those travel as chunk deltas).
    Switching worlds re-captures and re-ships, so it is refused while
    another job is in flight; callers juggling several worlds
    concurrently give each its own backend.

    A chunk that raises in a worker fails its :meth:`run` with the
    worker's exception and leaves the workers serving; what a *dead*
    worker does to the job is the transport's business.

    Thread-safe: the serving tier's worker threads may call :meth:`run`
    concurrently (the lock covers lifecycle and counters, not the
    exchange).
    """

    def __init__(self, chunk_size: int | None):
        self.chunk_size = chunk_size
        self._lock = threading.Lock()
        #: The captured world, what ``_connect`` ships to workers.
        self._snapshot: WorldSnapshot | None = None
        #: Strong refs backing the identity key so ids cannot be recycled.
        self._world: tuple | None = None
        self._world_key: tuple | None = None
        #: Ids whose records shipped with the snapshot (never re-shipped).
        self._shipped_ids: frozenset[str] = frozenset()
        #: Jobs currently inside run(); guards world switches.
        self._active = 0
        self._dispatch: Counter = Counter()
        self._chunk_count = 0
        self._chunk_items = 0
        self._chunk_seconds = 0.0
        self._last_chunk_size: int | None = None
        self._transport_counts: Counter = Counter()

    @staticmethod
    def check_fields(*, chunk_size: int | None, **unchecked) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    # -- transport hooks -----------------------------------------------------

    def _connect(self) -> tuple[object, int]:
        """Bring workers up to ``self._snapshot``; ``(session, width)``.

        Called under the lock at the start of every job.  ``session`` is
        whatever :meth:`_exchange` needs for one job; ``width`` is how
        many workers will share it (the default chunk plan is one even
        shard each).
        """
        raise NotImplementedError

    def _disconnect(self) -> None:
        """Drop every worker-side copy of the world (under the lock)."""
        raise NotImplementedError

    def _exchange(
        self,
        session: object,
        shards: Iterable[tuple[tuple[str, ...], bytes]],
        spec: LabelingSpec,
        deliver: Callable[[int, int | str, bytes | memoryview, float], None],
    ) -> None:
        """Carry each ``(chunk ids, delta bytes)`` to a worker and back.

        ``shards`` is lazy — a delta is encoded as the transport pulls
        it, so early chunks are running while later ones encode.  The
        transport has every chunk run through :func:`run_chunk` and calls
        ``deliver(index, worker, shard, seconds)`` once per chunk, in
        chunk order — the encoded trace shard, who produced it, and the
        worker-side wall seconds — reporting each payload it ships
        through :meth:`_carried`.
        """
        raise NotImplementedError

    def _carried(self, direction: str, carrier: str) -> None:
        """Count one ``delta`` or ``result`` payload against its carrier."""
        with self._lock:
            self._transport_counts[f"{direction}_{carrier}"] += 1

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the workers (idempotent; the next job starts afresh)."""
        with self._lock:
            self._disconnect()
            self._forget_world()

    def _forget_world(self) -> None:
        self._snapshot = None
        self._world = None
        self._world_key = None
        self._shipped_ids = frozenset()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- telemetry -----------------------------------------------------------

    @property
    def dispatch_counts(self) -> dict[int | str, int]:
        """Items scheduled per worker, cumulative across jobs.

        Workers are named by the transport (a pid, a ``host:port``); jobs
        too small to ship are counted under the parent's own pid.
        """
        with self._lock:
            return dict(self._dispatch)

    @property
    def chunk_stats(self) -> dict:
        """Per-chunk telemetry, cumulative across jobs.

        ``seconds`` sums worker-reported wall time; ``last_chunk_size`` is
        the size the most recent job sharded with; ``transport`` counts
        payloads by direction and carrier (``delta_shm``,
        ``result_frame``, ...).
        """
        with self._lock:
            return {
                "chunks": self._chunk_count,
                "items": self._chunk_items,
                "seconds": self._chunk_seconds,
                "last_chunk_size": self._last_chunk_size,
                "transport": dict(self._transport_counts),
            }

    # -- the protocol --------------------------------------------------------

    def _enter(
        self, truth: GroundTruth, predictor: QValuePredictor
    ) -> tuple[object, int, frozenset[str]]:
        """Count a job in against its world: ``(session, width, shipped)``."""
        key = (id(truth.zoo), id(predictor), truth.config)
        with self._lock:
            if self._world_key != key:
                if self._active > 0:
                    raise RuntimeError(
                        f"{type(self).__name__} is world-affine: "
                        "cannot switch to a different zoo/predictor while another "
                        "job is in flight; use one backend per world for "
                        "concurrent use"
                    )
                self._disconnect()
                self._snapshot = WorldSnapshot.capture(truth, predictor)
                self._world = (truth.zoo, predictor)
                self._world_key = key
                self._shipped_ids = self._snapshot.item_ids
            session, width = self._connect()
            self._active += 1
            return session, width, self._shipped_ids

    def _plan(self, item_ids: tuple[str, ...], width: int) -> list[tuple[str, ...]]:
        """Cut a job into chunks: ``chunk_size``, or one even shard per worker."""
        size = self.chunk_size or math.ceil(len(item_ids) / width)
        with self._lock:
            self._last_chunk_size = size
        return [
            item_ids[start : start + size] for start in range(0, len(item_ids), size)
        ]

    def run(
        self, job: LabelingJob, predictor: QValuePredictor
    ) -> list[ScheduleTrace]:
        if len(job.item_ids) <= 1:
            # Not worth a round-trip; still counted (under the parent pid)
            # so per-worker telemetry accounts for every item.
            with self._lock:
                self._dispatch[os.getpid()] += len(job.item_ids)
            return SerialBackend().run(job, predictor)
        truth = job.truth
        session, width, shipped = self._enter(truth, predictor)
        try:
            chunks = self._plan(job.item_ids, width)
            traces: list[ScheduleTrace] = []

            def delta(chunk: tuple[str, ...]) -> bytes:
                extras = [truth.record(i) for i in chunk if i not in shipped]
                return encode_records(extras) if extras else b""

            def deliver(index, worker, shard, seconds) -> None:
                chunk = chunks[index]
                traces.extend(decode_traces(shard, list(chunk), truth.zoo.names))
                with self._lock:
                    self._dispatch[worker] += len(chunk)
                    self._chunk_count += 1
                    self._chunk_items += len(chunk)
                    self._chunk_seconds += seconds

            self._exchange(
                session, ((chunk, delta(chunk)) for chunk in chunks), job.spec, deliver
            )
            return traces
        finally:
            with self._lock:
                self._active -= 1
