"""Process-pool transport: chunks and their codec bytes over an executor.

:class:`ProcessPoolBackend` is the :mod:`repro.engine.sharded` protocol
carried by a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
on this machine — the backend that scales CPU-bound scheduling past one
core.  The world snapshot ships once per worker through the pool
initializer.  After that the executor pipe is the only carrier: a chunk's
encoded delta goes down as the task's ``bytes`` argument and its encoded
trace shard comes back as ``bytes`` in the task's result.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.sharded import ShardedBackend, run_chunk
from repro.engine.snapshot import WorldSnapshot
from repro.scheduling.qgreedy import QValuePredictor
from repro.spec import LabelingSpec

logger = logging.getLogger("repro.engine.process")


#: Per-worker-process state set by the pool initializer: ``(truth,
#: predictor)``.
_WORKER: tuple | None = None


def _process_worker_init(snapshot: WorldSnapshot) -> None:
    """Pool initializer: restore the world, once per worker."""
    global _WORKER
    _WORKER = snapshot.restore()


def _process_worker_chunk(
    item_ids: tuple[str, ...], delta: bytes, spec: LabelingSpec
) -> tuple[int, bytes, float]:
    """Run one chunk inside a worker; returns (pid, trace shard, seconds)."""
    truth, predictor = _WORKER
    shard, seconds = run_chunk(truth, predictor, item_ids, spec, delta)
    return os.getpid(), shard, seconds


class ProcessPoolBackend(ShardedBackend):
    """Scheduling sharded over worker *processes* — escapes the GIL.

    The protocol (snapshot once, chunk deltas, serial-parity traces,
    world affinity) is :class:`~repro.engine.sharded.ShardedBackend`'s;
    this class is the executor.  A chunk that raises fails its job while
    the pool stays alive for the next one; a worker that *dies* raises
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
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        mp_context=None,
    ):
        self.check_fields(max_workers=max_workers, chunk_size=chunk_size)
        super().__init__(chunk_size)
        self.max_workers = max_workers or os.cpu_count() or 1
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None

    @staticmethod
    def check_fields(
        *, max_workers: int | None, chunk_size: int | None, **unchecked
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        ShardedBackend.check_fields(chunk_size=chunk_size)

    def refresh(self, predictor: QValuePredictor) -> None:
        """Drop the pool so the next job ships a snapshot of ``predictor``.

        Workers restore the world once at pool spawn, so new weights
        mean a new snapshot; closing is how this backend invalidates.
        (The cluster backend does the same hot-swap without a respawn.)
        """
        self.close()

    # -- transport hooks -----------------------------------------------------

    def _connect(self) -> tuple[ProcessPoolExecutor, int]:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self.mp_context,
                initializer=_process_worker_init,
                initargs=(self._snapshot,),
            )
        return self._pool, self.max_workers

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

    def _exchange(self, pool, shards, spec, deliver) -> None:
        futures = []
        try:
            for chunk, delta in shards:
                if delta:
                    self._carried("delta", "pipe")
                futures.append(pool.submit(_process_worker_chunk, chunk, delta, spec))
            for index, future in enumerate(futures):
                pid, shard, seconds = future.result()
                self._carried("result", "pipe")
                deliver(index, pid, shard, seconds)
        except BaseException as exc:
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenProcessPool):
                # A worker died mid-chunk; the pool is unusable.  Drop it
                # so the next job respawns cleanly.
                logger.warning(
                    "process pool broke mid-job; closing it so the next job "
                    "respawns workers"
                )
                self.close()
            raise
