"""The batched labeling engine: record, schedule, assemble, release.

:class:`LabelingEngine` is the throughput layer between the public
framework API and the per-item schedulers.  It accepts batches or streams
of :class:`~repro.data.datasets.DataItem`, records each batch into the
ground-truth cache in one pass (:meth:`GroundTruth.record_batch`), hands
the batch to a pluggable :class:`~repro.engine.backends.ExecutionBackend`,
assembles :class:`LabelingResult` records, and — on the streaming path —
releases the records it created once their results have been yielded, so
labeling an unbounded stream runs in bounded memory.

Scheduling constraints arrive as one :class:`~repro.spec.LabelingSpec`
(``spec=``; ``None`` means the default, unconstrained spec), validated
when it was constructed.

Eviction never touches records that pre-existed in a caller-supplied
cache: the engine only releases what it recorded itself, and callers can
opt out entirely with ``release_records=False``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from time import perf_counter

from repro.config import WorldConfig
from repro.data.datasets import DataItem
from repro.data.streams import batched
from repro.engine.backends import (
    ExecutionBackend,
    LabelingJob,
)
from repro.engine.config import BackendConfig, make_backend
from repro.engine.results import LabelingResult, result_from_trace
from repro.obs.instrument import engine_observer
from repro.scheduling.qgreedy import QValuePredictor
from repro.spec import LabelingSpec, spec_or
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth

#: Default number of in-flight items per scheduling batch.
DEFAULT_BATCH_SIZE = 64


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

    def with_backend(
        self, backend: str | BackendConfig | ExecutionBackend
    ) -> "LabelingEngine":
        """A sibling engine sharing this world but running another backend.

        The zoo, predictor, and config are shared (no copying); only the
        execution strategy changes.  Used by the serving tier's
        ``backend=`` override and handy for A/B-ing backends in tests.
        """
        return LabelingEngine(
            self.zoo,
            self.predictor,
            self.world_config,
            backend=backend,
            batch_size=self.batch_size,
        )

    # -- internals -----------------------------------------------------------

    def _ephemeral_truth(self) -> GroundTruth:
        return GroundTruth(self.zoo, [], self.world_config)

    def _run_batch(
        self,
        truth: GroundTruth,
        items: Sequence[DataItem],
        spec: LabelingSpec,
    ) -> tuple[list[LabelingResult], list[str]]:
        """Record + schedule + assemble one batch; returns (results, owned)."""
        # None unless obs instrumentation is installed; bare dispatches pay
        # one global read and one branch, no timing calls.
        sink = engine_observer()
        if sink is not None:
            dispatch_started = perf_counter()
        owned = [item.item_id for item in items if item.item_id not in truth]
        truth.record_batch(items)
        job = LabelingJob(
            truth=truth,
            item_ids=tuple(item.item_id for item in items),
            spec=spec,
        )
        traces = self.backend.run(job, self.predictor)
        results = [result_from_trace(truth, trace) for trace in traces]
        if sink is not None:
            sink.observe_engine(
                type(self.backend).__name__,
                spec.regime,
                len(items),
                perf_counter() - dispatch_started,
            )
        return results, owned

    # -- labeling ------------------------------------------------------------

    def label_batch(
        self,
        items: Sequence[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
        release_records: bool = False,
    ) -> list[LabelingResult]:
        """Label one batch of items under one shared spec.

        Results are input-ordered.  With ``release_records=True`` the
        records this call added to ``truth`` are evicted before returning
        (records that were already present are always kept).
        """
        spec = spec_or(spec)  # a non-spec fails before the zoo runs
        items = list(items)
        if truth is None:
            truth = self._ephemeral_truth()
        results, owned = self._run_batch(truth, items, spec)
        if release_records:
            truth.release_many(owned)
        return results

    def label_stream(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec | None = None,
        *,
        truth: GroundTruth | None = None,
        batch_size: int | None = None,
        release_records: bool = True,
    ) -> Iterator[LabelingResult]:
        """Label a stream lazily, ``batch_size`` items in flight at a time.

        One result is yielded per input item, in input order.  The source
        is consumed one chunk ahead: the first result arrives after
        ``batch_size`` items (or stream end), so latency-sensitive live
        sources should use a small ``batch_size`` (1 = per-item).  After a
        chunk's results have been yielded, the records the engine added for
        that chunk are released (pass ``release_records=False`` to keep the
        cache growing instead).
        """
        # Validate eagerly (before the first next()): a batch_size of 0 or
        # a non-spec must be an error at call time, not once iteration
        # starts.
        spec = spec_or(spec)
        if batch_size is None:
            size = self.batch_size
        elif batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        else:
            size = batch_size
        return self._stream(items, spec, truth, size, release_records)

    def _stream(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec,
        truth: GroundTruth | None,
        size: int,
        release_records: bool,
    ) -> Iterator[LabelingResult]:
        shared = truth if truth is not None else self._ephemeral_truth()
        for chunk in batched(items, size):
            results, owned = self._run_batch(shared, chunk, spec)
            yield from results
            if release_records:
                shared.release_many(owned)
