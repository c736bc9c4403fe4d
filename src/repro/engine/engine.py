"""The batched labeling engine: record, schedule, assemble, release.

:class:`LabelingEngine` is the paper's Fig. 3 loop and the one entry
point for labeling: it drives the per-item schedulers over a trained
predictor.  It accepts batches or streams of
:class:`~repro.data.datasets.DataItem`, records each batch into the
ground-truth cache in one pass (:meth:`GroundTruth.hold`), hands the batch
to a pluggable :class:`~repro.engine.backends.ExecutionBackend`, assembles
:class:`LabelingResult` records, and lets go of the batch's records once
its results are built (:meth:`GroundTruth.unhold`) — on the streaming
path, which records the next chunk while earlier ones schedule, once they
have been yielded — so labeling an unbounded stream runs in bounded memory.

Scheduling constraints arrive as one :class:`~repro.spec.LabelingSpec`
(``spec=``; ``None`` means the default, unconstrained spec), validated
when it was constructed.

The cache decides what is freed: a record the engine recorded goes once
no running job holds it, and records that pre-existed in a caller-supplied
cache are never touched.

Whoever builds the engine owns its backend: a process pool or cluster
fleet runs until ``engine.backend.close()``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from time import perf_counter

from repro.config import WorldConfig
from repro.data.datasets import DataItem
from repro.data.streams import batched
from repro.engine.backends import ExecutionBackend, LabelingJob
from repro.engine.config import BackendConfig, make_backend
from repro.engine.results import LabelingResult, result_from_trace
from repro.obs.instrument import engine_observer
from repro.scheduling.qgreedy import QValuePredictor
from repro.spec import LabelingSpec, spec_or
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth

#: Default number of in-flight items per scheduling batch.
DEFAULT_BATCH_SIZE = 64

#: ``backend.run`` calls a stream keeps in flight while it records the next.
STREAM_DEPTH = 2


class LabelingEngine:
    """Drives the schedule loop for many items concurrently.

    Parameters
    ----------
    zoo:
        The model collection ``M``.
    predictor:
        The per-state value predictor shared by all items.
    world_config:
        World parameters (valuable-confidence threshold etc.).
    backend:
        Registry name (``"serial"``, ``"batched"``, ``"process"``, …), a
        typed :class:`~repro.engine.config.BackendConfig`, or a
        constructed :class:`ExecutionBackend`.
    batch_size:
        Streaming chunk size: how many items are in flight at once.
    """

    def __init__(
        self,
        zoo: ModelZoo,
        predictor: QValuePredictor,
        world_config: WorldConfig | None = None,
        backend: str | BackendConfig | ExecutionBackend = "batched",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.zoo = zoo
        self.predictor = predictor
        self.world_config = world_config or WorldConfig()
        self.backend = make_backend(backend)
        self.batch_size = batch_size

    # -- internals -----------------------------------------------------------

    def _ephemeral_truth(self) -> GroundTruth:
        return GroundTruth(self.zoo, [], self.world_config)

    def _record(
        self, truth: GroundTruth, items: list, spec: LabelingSpec
    ) -> tuple[LabelingJob, list[str], float]:
        """Record and hold a batch: ``(job, held ids, started)``."""
        started = perf_counter()
        held = truth.hold(items)
        ids = tuple(item.item_id for item in items)
        return LabelingJob(truth=truth, item_ids=ids, spec=spec), held, started

    def _finish(
        self, job: LabelingJob, traces: list, started: float
    ) -> list[LabelingResult]:
        """Assemble a scheduled batch's results and report it to obs."""
        results = [result_from_trace(job.truth, trace) for trace in traces]
        sink = engine_observer()  # None unless obs instrumentation is installed
        if sink is not None:
            sink.observe_engine(
                type(self.backend).__name__,
                job.spec.regime,
                len(results),
                perf_counter() - started,
            )
        return results

    # -- labeling ------------------------------------------------------------

    def label_batch(
        self,
        items: Sequence[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
    ) -> list[LabelingResult]:
        """Label one batch of items under one shared spec.

        Results are input-ordered.  The records this call added to
        ``truth`` are freed before it returns or raises, unless a
        concurrent job still holds them.
        """
        spec = spec_or(spec)  # a non-spec fails before the zoo runs
        items = list(items)
        if truth is None:
            truth = self._ephemeral_truth()
        job, held, started = self._record(truth, items, spec)
        try:
            return self._finish(job, self.backend.run(job, self.predictor), started)
        finally:
            truth.unhold(held)

    def label_stream(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
        batch_size: int | None = None,
    ) -> Iterator[LabelingResult]:
        """Label a stream lazily, ``batch_size`` items per chunk.

        One result per input item, in input order.  This thread records the
        next chunk while up to two earlier ones schedule, so the source is
        read up to three chunks ahead; a finished chunk is yielded before the
        source is read again, then the records it added are freed.  A failing
        chunk raises after every earlier one; closing early waits for the
        runs in flight.
        """
        # Validate at call time, not at the first next().
        spec = spec_or(spec)
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        size = batch_size or self.batch_size
        return self._stream(items, spec, truth, size)

    def _stream(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec,
        truth: GroundTruth | None,
        size: int,
    ) -> Iterator[LabelingResult]:
        # Truth mutations stay on this thread; pool threads only read it.
        shared = truth if truth is not None else self._ephemeral_truth()
        pool = ThreadPoolExecutor(STREAM_DEPTH, thread_name_prefix="labeling-stream")
        pending: deque = deque()  # (job, held, started, future), input order
        source, chunk, failure = batched(items, size), [], None
        try:
            while chunk is not None:
                try:
                    chunk = next(source, None)
                    if chunk is not None:
                        job, held, started = self._record(shared, chunk, spec)
                        future = pool.submit(self.backend.run, job, self.predictor)
                        pending.append((job, held, started, future))
                except Exception as error:  # raised after the chunks before it
                    chunk, failure = None, error
                while pending and (
                    not chunk or len(pending) > STREAM_DEPTH or pending[0][3].done()
                ):
                    job, held, started, future = pending[0]
                    yield from self._finish(job, future.result(), started)
                    pending.popleft()
                    shared.unhold(held)
            if failure is not None:
                raise failure
        finally:
            # Never abandon a run mid-exchange: let it land, then let go.
            wait([entry[3] for entry in pending])
            shared.unhold([item_id for entry in pending for item_id in entry[1]])
            pool.shutdown()
