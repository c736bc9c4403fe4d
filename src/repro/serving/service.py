"""The labeling service: dynamic micro-batching over engine workers.

:class:`LabelingService` is the layer between many independent clients and
one :class:`~repro.engine.engine.LabelingEngine`.  Clients :meth:`submit`
single items and get back futures; a dispatcher thread coalesces queued
requests into micro-batches — flushing when ``batch_size`` is reached or
``max_wait`` has elapsed since the batch started forming, whichever comes
first — and hands each batch **only to a free worker thread**, which runs the
engine's batched path (one stacked Q forward per tick over the rows whose
observation changed, see :class:`~repro.engine.backends.BatchedBackend`).
While every worker is busy the dispatcher holds at most one formed batch; the
backlog stays queued, under its depth bound, admission deadlines and fair
dispatch.  Event-loop clients pass ``wait="async"`` to
:meth:`~LabelingService.submit` / :meth:`~LabelingService.submit_many` — the
same futures wrapped with :func:`asyncio.wrap_future` after non-blocking
admission — and an engine built with ``backend="process"`` moves the
CPU-bound scheduling phase into worker processes (the GIL otherwise caps the
whole worker pool near one core) while admission, caching, and recording stay
in the parent; ``backend=ClusterConfig(...)`` moves it onto socket workers
that may live on other hosts.

Each request carries a :class:`~repro.spec.LabelingSpec` — its scheduling
regime, constraints, and priority.  Requests submitted without one inherit
the service's default spec.  The queue groups dispatch by
:attr:`LabelingSpec.batch_key`, so every micro-batch is *homogeneous*
(one regime, one deadline class, one memory budget) and one service hosts
unconstrained, deadline, and deadline+memory clients concurrently; a
batch whose flush timer expired while other-regime traffic waited is
reported with flush reason ``regime_split``.

There is one admission path and one settle point.  :meth:`submit`,
:meth:`submit_many` and :meth:`recover` all enter through ``_admit``
(build request → open span → claim cache key → count pending → journal →
enqueue → settle this call's refusals): ``submit`` is the one-item case
that re-raises its own refusal, ``submit_many`` leaves refusals on the
futures, ``recover`` passes the already-journaled backlog.  Every request
counted pending leaves through ``_resolve``, which derives the terminal
stage from the error once and writes the cache claim, the future, the
journal terminal, the trace span, the outcome counter and the SLO series
from it — an admission-expired request is a deadline miss whichever
entry point carried it.

Queue policy (per-key FIFO buckets, weighted-fair key selection,
backpressure, deadline drops) lives in
:class:`~repro.serving.queue.RequestQueue`; every counter and latency
summary lives in the service's
:class:`~repro.obs.registry.MetricsRegistry`, written through
:class:`~repro.serving.telemetry.ServiceTelemetry`.  An optional
:class:`~repro.serving.result_cache.ResultCache` sits in front of the
queue: repeat submissions of a ``(item, batch_key)`` already labeled are
answered from the cache without scheduling, and concurrent submissions of
an in-flight key attach to the same future (single-flight) — the first
submitter's admission terms (priority, admission deadline) govern the
shared flight.  A timer thread sweeps the queue every
:data:`EXPIRY_INTERVAL` seconds so requests whose admission deadline lapses
inside a bucket the dispatcher is busy elsewhere on settle promptly
instead of waiting for their bucket's next turn.  Worker threads
share the engine safely: scheduling is pure reads over recorded outputs
and stateless network forwards (see ``repro.engine.backends``).  Each
batch labels against either its own ephemeral ground-truth cache or a
shared one; a shared cache serializes recording and holds each in-flight
batch's records (:meth:`GroundTruth.hold`), so concurrent batches never
record the same item twice or evict a record another batch is still
scheduling against, and a record the service recorded is freed once its
last batch finishes — a long-lived service runs in bounded memory.

Lifecycle: ``start()`` launches the dispatcher and workers; ``drain()``
stops admission and waits until every admitted request has resolved;
``shutdown()`` additionally stops the threads, failing any still-queued
requests with :class:`ServiceStopped`.  ``with service:`` does
start/drain/shutdown automatically.

Durability: constructed with a
:class:`~repro.durability.journal.Journal` (or a directory path), the
service write-ahead-logs every first-flight admission *before* the
request becomes completable and logs its terminal outcome from
:meth:`_resolve` — so after a crash, ``admitted − terminal`` is exactly
the acknowledged work the process still owes.  :meth:`recover` replays
that gap through the same admission core, except that a replayed request
is never refused a second time — it waits for queue space under either
overflow policy.  With a result cache the replay is idempotent
(duplicates coalesce onto one flight) and, because scheduling is
deterministic over recorded truth, each re-executed request produces an
identical result trace.  Under the journal's
``batch`` fsync policy the service flushes at micro-batch boundaries;
``always`` makes every acknowledged admission durable before
``submit()`` returns.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.data.datasets import DataItem
from repro.durability.journal import Journal
from repro.engine.engine import LabelingEngine
from repro.obs.bridge import bind_service
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.serving.queue import (
    DeadlineExpired,
    LabelingRequest,
    QueueFull,
    RequestQueue,
    ServiceStopped,
)
from repro.serving.result_cache import ResultCache
from repro.serving.telemetry import ServiceTelemetry, TelemetrySnapshot
from repro.spec import LabelingSpec, spec_or
from repro.zoo.oracle import GroundTruth

#: Default flush timer: how long a request waits for batch-mates at most.
DEFAULT_MAX_WAIT = 0.02
#: Default number of engine worker threads.
DEFAULT_WORKERS = 2
#: Default admission-queue depth bound.
DEFAULT_MAX_DEPTH = 1024
#: Queue sweep period for settling expired-while-queued requests.
EXPIRY_INTERVAL = 0.05

logger = logging.getLogger("repro.serving.service")


def _check_wait_mode(wait: str) -> None:
    if wait not in ("block", "nowait", "async"):
        raise ValueError(
            f"wait must be 'block', 'nowait', or 'async', got {wait!r}"
        )


@dataclass
class RecoveryReport:
    """What one :meth:`LabelingService.recover` pass replayed.

    ``replayed`` counts journal entries that were admitted but had no
    terminal outcome when the journal was last opened; ``recovered`` /
    ``failed`` count the ones whose re-execution has settled; ``pending``
    is what is still in flight (always 0 after a successful blocking
    :meth:`~LabelingService.recover`).
    """

    replayed: int
    recovered: int
    failed: int
    pending: int
    duration: float
    #: The replayed requests' futures, in journal order.
    futures: list[Future] = field(default_factory=list, repr=False)


class _RecoveryRun:
    """Per-``recover()`` accounting: counts conclusions, signals done.

    Terminal records are written from future callbacks on worker
    threads; waiting on this event (instead of the futures) guarantees
    the journal already holds every terminal when the waiter proceeds
    to :meth:`LabelingService._journal_flush`.
    """

    def __init__(self, expected: int) -> None:
        self._lock = threading.Lock()
        self._expected = expected
        self._recovered = 0
        self._failed = 0
        self._done = threading.Event()
        if not expected:
            self._done.set()

    def conclude(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self._recovered += 1
            else:
                self._failed += 1
            if self._recovered + self._failed >= self._expected:
                self._done.set()

    def wait(self, timeout: float | None) -> bool:
        return self._done.wait(timeout)

    def counts(self) -> tuple[int, int]:
        with self._lock:
            return self._recovered, self._failed


def _terminal_stage(error: BaseException | None) -> str:
    """The trace terminal stage a settling error (or success) maps to."""
    if error is None:
        return "completed"
    if isinstance(error, DeadlineExpired):
        return "expired"
    if isinstance(error, QueueFull):
        return "rejected"
    if isinstance(error, ServiceStopped):
        return "cancelled"
    return "failed"


class LabelingService:
    """Micro-batching front end over a shared :class:`LabelingEngine`.

    :meth:`submit`, :meth:`submit_many` and :meth:`recover` share one
    admission path (:meth:`_admit`) and every admitted request settles
    through :meth:`_resolve`; see the module docstring.

    Parameters
    ----------
    engine:
        The engine every worker dispatches batches through, on the
        engine's own backend.  With a process backend the scheduling
        phase runs in worker *processes* (escaping the GIL) while the
        queue, result cache, and shared truth stay in this process; with
        a cluster backend it is sharded over socket workers that may live
        on other hosts.  The service never closes the backend: whoever
        built it does.
    batch_size:
        Flush a forming batch as soon as it holds this many requests.
    max_wait:
        Flush a forming batch at most this many seconds after it started
        forming, even if underfull.
    workers:
        Engine worker threads; batches from the dispatcher run here.
        With a process backend these threads only coordinate (submit
        chunks and block on process futures), so matching ``workers`` to
        the backend's ``max_workers`` keeps the processes saturated.
    max_depth / overflow:
        Admission-queue backpressure bound and full-queue policy
        (``"block"`` or ``"reject"``), see :class:`RequestQueue`.
    spec:
        Default :class:`LabelingSpec` for requests submitted without one
        (the paper's per-item regimes; ``None`` is the unconstrained
        default).  Distinct from per-request *admission* deadlines, which
        bound queue wait and are passed to :meth:`submit`.
    truth:
        Optional shared ground-truth cache.  Items already recorded there
        are scheduled against the existing records; a record the engine
        adds is freed once no in-flight batch holds it.  Without it every
        batch uses an ephemeral cache.
    cache / cache_size:
        Optional :class:`ResultCache` in front of the queue (or a
        capacity to build one from); repeat submissions of a cached
        ``(item_id, batch_key)`` skip scheduling entirely and concurrent
        duplicates coalesce onto one in-flight future.  Passing both is
        ambiguous and raises.
    queue_factory:
        Optional callable building the admission queue; receives the
        keyword arguments :class:`RequestQueue` takes (``max_depth``,
        ``overflow``, ``min_cost``, ``clock``) and returns a
        :class:`RequestQueue` (or subclass).  The gateway passes one
        that adds its roster's ``tenant_weights``; defaults to
        :class:`RequestQueue` with every tenant weighted alike.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the service
        publishes into (a private one when omitted).  Its telemetry owns
        the request, batch, latency and SLO families there and writes
        them on the request path — one small-lock increment each; live
        state, cache, backend, journal and recovery stats are read by
        one pull-time collector only when the registry is scraped.
    tracer:
        Optional :class:`~repro.obs.trace.TraceBuffer`.  When set, every
        submission carries a :class:`~repro.obs.trace.RequestTrace` span
        (``admitted → queued → batched → scheduled → completed/...``,
        with cache-hit/coalesced short-circuits) that retires into the
        buffer's ring, tailable via ``/traces`` and ``repro.cli trace``.
    journal / journal_fsync:
        Optional write-ahead :class:`~repro.durability.journal.Journal`
        (or a directory path to open one in, with ``journal_fsync``
        policy).  Every first-flight admission is journaled before its
        request can settle and its terminal outcome is journaled from
        :meth:`_resolve`; after a crash, :meth:`recover` replays the
        admitted-minus-terminal gap.  A journal the service opened from
        a path is closed at :meth:`shutdown`; a caller-built instance
        stays the caller's to close.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        engine: LabelingEngine,
        *,
        batch_size: int = 32,
        max_wait: float = DEFAULT_MAX_WAIT,
        workers: int = DEFAULT_WORKERS,
        max_depth: int = DEFAULT_MAX_DEPTH,
        overflow: str = "block",
        spec: LabelingSpec | None = None,
        truth: GroundTruth | None = None,
        cache: ResultCache | None = None,
        cache_size: int | None = None,
        queue_factory=None,
        registry: MetricsRegistry | None = None,
        tracer: TraceBuffer | None = None,
        journal: Journal | str | Path | None = None,
        journal_fsync: str = "batch",
        clock=time.monotonic,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cache is not None and cache_size is not None:
            raise ValueError(
                "pass either a cache instance or cache_size, not both"
            )
        self.engine = engine
        # Per-worker dispatch: a backend that counts its own workers (the
        # process pool's per-pid counters) owns the ``workers`` telemetry
        # map; otherwise the service counts its worker threads.
        self._backend_counts = hasattr(type(engine.backend), "dispatch_counts")
        self.batch_size = batch_size
        self.max_wait = max_wait
        self.workers = workers
        self.default_spec = spec_or(spec)
        self.truth = truth
        self.cache = cache if cache is not None else (
            ResultCache(cache_size) if cache_size else None
        )
        self._clock = clock
        min_cost = float(engine.zoo.times.min()) if len(engine.zoo) else 0.0
        make_queue = queue_factory or RequestQueue
        self.queue = make_queue(
            max_depth=max_depth, overflow=overflow, min_cost=min_cost, clock=clock
        )
        if not isinstance(self.queue, RequestQueue):
            raise TypeError(
                "queue_factory must build a RequestQueue, got "
                f"{type(self.queue).__name__}"
            )
        self.telemetry = ServiceTelemetry(registry)
        self.registry = self.telemetry.registry
        self._started_at = clock()
        self.tracer = tracer
        # Like backends: a journal opened from a path is the service's to
        # close; a caller-built instance may outlive the service.
        self._owns_journal = isinstance(journal, (str, Path))
        if self._owns_journal:
            journal = Journal(journal, fsync=journal_fsync)
        self.journal: Journal | None = journal
        self._recovery_lock = threading.Lock()
        self._recovery = {
            "runs": 0,
            "replayed": 0,
            "recovered": 0,
            "failed": 0,
            "last_replayed": 0,
            "last_duration": 0.0,
        }
        bind_service(self.registry, self)
        self._state = threading.Condition()
        self._accepting = True
        self._started = False
        self._stopped = False
        #: Requests admitted but not yet resolved (completed/failed/expired).
        self._pending = 0
        #: Requests currently inside worker batches.
        self._in_flight = 0
        self._dispatcher: threading.Thread | None = None
        self._reaper: threading.Thread | None = None
        self._reaper_stop = threading.Event()
        self._pool: ThreadPoolExecutor | None = None
        #: Free workers; the dispatcher hands a batch off only holding one.
        self._slots = threading.Semaphore(workers)

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        item: DataItem,
        spec: LabelingSpec | None = None,
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        wait: str = "block",
    ) -> Future | asyncio.Future:
        """Enqueue one item; returns a future resolving to its result.

        ``spec`` sets this request's scheduling constraints and priority
        (defaulting to the service's spec); only requests whose specs share
        a batch key are batched together.  ``deadline`` is this request's
        *admission* budget: wall-clock seconds from submission after which
        it can no longer afford the cheapest model and is dropped
        (:class:`DeadlineExpired` here at admission, or set on the future
        if the budget runs out while queued) — distinct from the spec's
        scheduling deadline.

        ``wait`` picks the admission mode:

        * ``"block"`` (default) — a full queue raises :class:`QueueFull`
          under the ``reject`` policy, or blocks up to ``timeout`` under
          ``block``; returns a :class:`concurrent.futures.Future`.
        * ``"nowait"`` — a full queue raises :class:`QueueFull`
          immediately regardless of overflow policy (the calling thread
          never blocks on backpressure).
        * ``"async"`` — non-blocking admission like ``"nowait"``, but
          returns an :class:`asyncio.Future` resolving on the calling
          event loop: the submission path a network front end uses
          (e.g. the gateway's 429 + ``Retry-After`` shed logic).  Must
          be called with a running event loop.

        With a result cache, a submission whose ``(item_id, batch_key)``
        is already cached resolves immediately without queueing, and one
        that duplicates an in-flight key returns that flight's shared
        future — the first submitter's admission terms apply to everyone
        attached.
        """
        _check_wait_mode(wait)
        futures, refusals = self._admit(
            [(item, spec_or(spec, self.default_spec))],
            deadline=deadline,
            timeout=timeout,
            nowait=wait != "block",
        )
        if refusals:
            raise refusals[0]
        return asyncio.wrap_future(futures[0]) if wait == "async" else futures[0]

    def submit_many(
        self,
        items: Iterable[DataItem],
        spec: LabelingSpec | None = None,
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        wait: str = "block",
    ) -> list[Future] | list[asyncio.Future]:
        """Bulk-submit items under one shared spec; one future per item.

        Unlike a loop of :meth:`submit` calls, admission bookkeeping is
        batched — one state-lock round and one queue-lock round for the
        whole call — and a single ``submitted_many`` telemetry event
        records the call (``submitted`` still counts admitted items).
        Per-item admission failures (an expired admission ``deadline``, a
        full queue) are set on the corresponding futures instead of
        raising, so the input-ordered future list is always complete.

        ``wait`` picks the admission mode exactly as in :meth:`submit`:
        ``"block"`` (default) may park on a full queue up to ``timeout``;
        ``"nowait"`` turns queue-full waits into immediate per-item
        rejections (the corresponding futures fail with
        :class:`QueueFull`); ``"async"`` is non-blocking admission
        returning input-ordered :class:`asyncio.Future` awaitables, so
        ``asyncio.gather(..., return_exceptions=True)`` sees the complete
        picture.

        With a result cache, cached items resolve immediately, duplicates
        of in-flight keys (including duplicates *within* this call) share
        one future, and only first-flight items are enqueued.
        """
        _check_wait_mode(wait)
        resolved = spec_or(spec, self.default_spec)
        futures, _ = self._admit(
            [(item, resolved) for item in items],
            deadline=deadline,
            timeout=timeout,
            nowait=wait != "block",
        )
        if futures:
            self.telemetry.count("submitted_many")
        if wait == "async":
            return [asyncio.wrap_future(future) for future in futures]
        return futures

    def _admit(
        self,
        work: list[tuple[DataItem, LabelingSpec]],
        *,
        deadline: float | None = None,
        timeout: float | None = None,
        nowait: bool = False,
        replayed: bool = False,
    ) -> tuple[list[Future], list[BaseException]]:
        """The one admission path: ``(futures, refusals)`` for ``work``.

        ``futures`` is input-ordered and complete; ``refusals`` holds the
        errors of the first-flight requests *this call* settled as
        expired / rejected / stopped (never the earlier failure of a
        flight a request merely joined).  ``replayed`` marks the recovery
        backlog: already journaled — the recovery callback writes each
        terminal against the original seq — and already answered
        "admitted", so it waits for queue space under either overflow
        policy instead of being refused again.

        A service that stopped accepting raises :class:`ServiceStopped`
        before any span, cache claim or journal record exists.  Past that
        point nothing raises per item; a failing journal or a queue that
        closed under the call propagates only after every request of the
        call has been settled with that error through :meth:`_resolve`.
        """
        if not work:
            return [], []
        with self._state:
            if not self._accepting:
                raise ServiceStopped("service is not accepting new requests")
        now = self._clock()
        futures: list[Future] = []
        requests: list[LabelingRequest] = []
        hits = joins = 0
        for item, spec in work:
            request = LabelingRequest(
                item=item,
                priority=spec.priority,
                deadline=deadline,
                submitted_at=now,
                spec=spec,
            )
            if self.tracer is not None:
                request.trace = self.tracer.start(item.item_id, spec.regime)
                request.trace.add("admitted")
            if self.cache is not None:
                request.cache_key = spec.cache_key(item.item_id)
                outcome, payload = self.cache.begin(
                    request.cache_key, request.future
                )
                if outcome == "hit":
                    hits += 1
                    self._finish_trace(request, "cache_hit")
                    done: Future = Future()
                    done.set_result(payload)
                    futures.append(done)
                    continue
                if outcome == "join":
                    joins += 1
                    self._finish_trace(request, "coalesced")
                    futures.append(payload)
                    continue
            requests.append(request)
            futures.append(request.future)
        if hits:
            self.telemetry.count("cache_hit", hits)
        if joins:
            self.telemetry.count("coalesced", joins)
        if not requests:
            return futures, []
        if self.cache is not None:
            self.telemetry.count("cache_miss", len(requests))
        # Count the requests pending *before* they become poppable, so a
        # concurrent drain never observes a dispatched-but-uncounted
        # request (or a transiently negative pending count).  From here
        # on every one of them leaves through _resolve.
        with self._state:
            self._pending += len(requests)
        try:
            # WAL discipline: the admission record lands before the
            # request becomes poppable (and thus completable).  A crash
            # after this point is recoverable; a refusal below writes the
            # matching terminal so the record does not replay.
            if self.journal is not None and not replayed:
                for request in requests:
                    request.journal_seq = self.journal.log_admission(
                        request.item, request.spec, deadline
                    )
            if replayed:
                fates = self.queue.put_replayed(requests)
            else:
                fates = self.queue.put_many(requests, timeout=timeout, nowait=nowait)
        except BaseException as exc:
            for request in requests:
                self._resolve(request, error=exc)
            raise
        self.telemetry.count("submitted", len(fates.admitted))
        if self.tracer is not None:
            for request in fates.admitted:
                request.trace.add("queued")
        refused = [(r, self.queue.expired_error(r)) for r in fates.expired]
        refused += [
            (r, self.queue.rejected_error(timeout, nowait=nowait))
            for r in fates.rejected
        ]
        refused += [
            (r, ServiceStopped("service stopped during admission"))
            for r in fates.stopped
        ]
        for request, error in refused:
            self._resolve(request, error=error)
        return futures, [error for _, error in refused]

    def snapshot(self) -> TelemetrySnapshot:
        """Telemetry snapshot including live queue depth and in-flight count.

        The ``workers`` map shows items per scheduling worker: per worker
        *process* (``pid<n>``) when the backend is a process pool, per
        worker address (``host:port``) under the cluster backend, per
        service worker thread otherwise.
        """
        return self.telemetry.snapshot(
            elapsed=self.uptime,
            queue_depth=self.queue.depth,
            in_flight=self.in_flight,
            extra_workers=self.backend_dispatch_counts(),
        )

    @property
    def in_flight(self) -> int:
        """Requests inside worker batches right now."""
        with self._state:
            return self._in_flight

    @property
    def uptime(self) -> float:
        """Seconds since the service was built."""
        return self._clock() - self._started_at

    def backend_dispatch_counts(self) -> dict[str, int] | None:
        """Items per worker as counted by the backend itself (``pid<n>``
        for a process pool, ``host:port`` for a cluster), or ``None``
        when the service counts its own worker threads."""
        if not self._backend_counts:
            return None
        return {
            worker if isinstance(worker, str) else f"pid{worker}": count
            for worker, count in self.engine.backend.dispatch_counts.items()
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LabelingService":
        """Launch the dispatcher and the worker pool (idempotent)."""
        with self._state:
            if self._stopped:
                raise ServiceStopped("cannot start a shut-down service")
            if self._started:
                return self
            self._started = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="labeling-worker"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="labeling-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._reaper = threading.Thread(
            target=self._expiry_loop, name="labeling-expiry", daemon=True
        )
        self._reaper.start()
        logger.info(
            "service started: %d worker(s), batch_size=%d, max_wait=%.3fs, "
            "backend=%s",
            self.workers,
            self.batch_size,
            self.max_wait,
            type(self.engine.backend).__name__,
        )
        return self

    def recover(
        self, *, wait: bool = True, timeout: float | None = None
    ) -> RecoveryReport:
        """Replay journaled admissions that never reached a terminal.

        Starts the service if needed, then resubmits the whole pending
        backlog through the normal admission path in one call — *without*
        re-journaling it — and writes each entry's terminal outcome
        (against its **original** seq) when its replayed future settles.
        The original client was already told "admitted", so acknowledged
        work is completed rather than refused again: replayed requests
        carry no admission deadline and wait for queue space under either
        overflow policy (a backlog larger than ``max_depth`` feeds
        through as the dispatcher drains it).

        With a result cache the replay is idempotent: duplicate
        ``(item, batch_key)`` entries coalesce onto a single flight, and
        every duplicate's original seq still gets its terminal from the
        shared future.  Because scheduling is deterministic over recorded
        truth, a replayed request re-executes to an identical trace.

        With ``wait=True`` (default) the call blocks until every replay
        has settled *and* its terminal is journaled (or ``timeout``
        elapses), then flushes.
        """
        if self.journal is None:
            raise ValueError("recover() requires a service journal")
        entries = self.journal.pending_entries()
        started = self._clock()
        self.start()
        run = _RecoveryRun(len(entries))
        work = [(e.item, spec_or(e.spec, self.default_spec)) for e in entries]
        spans = [None] * len(entries)
        if self.tracer is not None:
            spans = [self.tracer.start(e.item.item_id, "recovery") for e in entries]
        try:
            futures, _ = self._admit(work, replayed=True)
        except BaseException as exc:
            # Nothing was replayed (the service stopped accepting): the
            # entries stay pending in the journal for the next recover().
            for span in spans:
                if span is not None:
                    self.tracer.finish(span, _terminal_stage(exc))
            raise
        for entry, span, future in zip(entries, spans, futures):
            future.add_done_callback(
                partial(self._conclude_recovery, entry.seq, span, run)
            )
        if wait:
            run.wait(timeout)
            self._journal_flush()
        recovered, failed = run.counts()
        pending = len(entries) - recovered - failed
        duration = self._clock() - started
        with self._recovery_lock:
            self._recovery["runs"] += 1
            self._recovery["replayed"] += len(entries)
            self._recovery["last_replayed"] = len(entries)
            self._recovery["last_duration"] = duration
        if entries:
            logger.info(
                "recovery replayed %d journal entr%s: %d recovered, %d "
                "failed, %d still in flight (%.3fs)",
                len(entries),
                "y" if len(entries) == 1 else "ies",
                recovered,
                failed,
                pending,
                duration,
            )
        return RecoveryReport(
            replayed=len(entries),
            recovered=recovered,
            failed=failed,
            pending=pending,
            duration=duration,
            futures=futures,
        )

    def _conclude_recovery(
        self, seq: int, span, run: _RecoveryRun, future: Future
    ) -> None:
        """Settle one replayed entry: terminal for the *original* seq."""
        try:
            error = future.exception()
        except BaseException as exc:
            error = exc
        stage = _terminal_stage(error)
        self._journal_terminal(seq, stage)
        if span is not None:
            self.tracer.finish(span, stage)
        with self._recovery_lock:
            self._recovery["recovered" if error is None else "failed"] += 1
        run.conclude(error is None)

    def recovery_stats(self) -> dict:
        """Cumulative recovery counters (exported as ``repro_recovery_*``)."""
        with self._recovery_lock:
            return dict(self._recovery)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission and wait until every admitted request resolves.

        Forming batches flush immediately instead of waiting out
        ``max_wait``.  Returns ``True`` once nothing is pending (always
        immediate on a never-started service with an empty queue);
        ``False`` if ``timeout`` elapsed first.
        """
        logger.info("draining: admission stopped, %d request(s) pending", self._pending)
        with self._state:
            self._accepting = False
        self.queue.start_drain()
        with self._state:
            if not self._started:
                return self._pending == 0
            drained = self._state.wait_for(lambda: self._pending == 0, timeout)
        if not drained:
            logger.warning(
                "drain timed out after %.3fs with %d request(s) still pending",
                timeout,
                self._pending,
            )
        self._journal_flush()
        return drained

    def shutdown(self, wait: bool = True) -> None:
        """Stop the service; still-queued requests fail with ServiceStopped.

        With ``wait=True`` (default) in-flight batches finish and resolve
        their futures first.  After shutdown no future is left pending:
        every admitted request has a result or an exception.
        """
        with self._state:
            if self._stopped:
                return
            self._accepting = False
            self._stopped = True
        leftovers = self.queue.close()
        self._reaper_stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
        if self._reaper is not None:
            self._reaper.join()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        # Leftovers were journaled at admission; their ServiceStopped
        # terminals (written by _resolve above) record that the *client*
        # observed the failure — recover() replays only crash-lost work.
        for request in leftovers:
            self._resolve(request, error=ServiceStopped("service shut down"))
        self._journal_flush()
        if self.journal is not None and self._owns_journal:
            try:
                self.journal.close()
            except Exception:
                logger.exception("journal close failed")
        logger.info(
            "service shut down (%d queued request(s) cancelled)", len(leftovers)
        )

    def __enter__(self) -> "LabelingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()
        self.shutdown()

    # -- dispatch ------------------------------------------------------------

    def _journal_terminal(self, seq: int, stage: str) -> None:
        """Journal one terminal outcome; a failing disk never kills serving."""
        try:
            self.journal.log_terminal(seq, stage)
        except Exception:
            logger.exception("failed to journal terminal for seq %d", seq)

    def _journal_flush(self) -> None:
        """Flush the journal (batch-policy fsync point); log-don't-raise."""
        if self.journal is None:
            return
        try:
            self.journal.flush()
        except Exception:
            logger.exception("journal flush failed")

    def _finish_trace(self, request: LabelingRequest, stage: str) -> None:
        """Retire a request's trace span (no-op without tracing)."""
        if self.tracer is not None and request.trace is not None:
            self.tracer.finish(request.trace, stage)

    def _resolve(self, request: LabelingRequest, result=None, error=None) -> None:
        """Settle one request: the single point all fates flow through.

        Every request that ever held a ``_pending`` count leaves here —
        completed, failed in a batch, expired (at admission, in the queue
        or on the reaper's sweep), rejected by the depth bound, cancelled
        by a stop.  ``stage`` is derived from the error once and the
        journal terminal, the trace span, the outcome counter and the
        regime / tenant SLO series are all written from it, so they
        cannot disagree about a request.
        """
        # Cache before future: a client that reacts to its resolved
        # future by immediately re-submitting (or probing cachedness —
        # the gateway's ``cached`` flag) must observe the settled entry.
        if self.cache is not None and request.cache_key is not None:
            self.cache.settle(request.cache_key, result=result, error=error)
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(result)
        stage = _terminal_stage(error)
        if self.journal is not None and request.journal_seq is not None:
            self._journal_terminal(request.journal_seq, stage)
        self._finish_trace(request, stage)
        self.telemetry.count(stage)
        spec = request.spec or self.default_spec
        if stage == "completed":
            self.telemetry.observe_outcome(
                spec.regime,
                "completed",
                self._clock() - request.submitted_at,
                tenant=spec.tenant,
            )
        elif stage in ("expired", "failed"):
            self.telemetry.observe_outcome(spec.regime, stage, tenant=spec.tenant)
        with self._state:
            self._pending -= 1
            self._state.notify_all()

    def _settle_overdue(self, requests: list[LabelingRequest]) -> None:
        """Settle requests the queue dropped past their admission deadline
        — by ``pop_batch`` as the dispatcher reached them, or by the
        reaper's ``expire_overdue`` sweep, which runs on a timer so a
        doomed request in a bucket the dispatcher is not currently
        serving fails promptly instead of waiting for its bucket's turn.
        """
        now = self._clock()
        for request in requests:
            self._resolve(
                request,
                error=DeadlineExpired(
                    f"deadline {request.deadline}s expired after "
                    f"{now - request.submitted_at:.3f}s in queue"
                ),
            )

    def _expiry_loop(self) -> None:
        while not self._reaper_stop.wait(EXPIRY_INTERVAL):
            self._settle_overdue(self.queue.expire_overdue())

    def _dispatch_loop(self) -> None:
        while True:
            batch, expired, reason = self.queue.pop_batch(
                self.batch_size, self.max_wait
            )
            now = self._clock()
            self._settle_overdue(expired)
            if reason is None:
                return
            if not batch:
                continue
            for request in batch:
                self.telemetry.observe_queue_wait(
                    now - request.submitted_at, tenant=request.tenant
                )
            # The queue guarantees batch homogeneity, so the first
            # request's spec speaks for the whole batch.
            spec = batch[0].spec
            self.telemetry.observe_flush(
                len(batch), reason, regime=spec.regime if spec else None
            )
            if self.tracer is not None:
                size = len(batch)
                for request in batch:
                    if request.trace is not None:
                        request.trace.add("batched", reason=reason, size=size)
            self._slots.acquire()
            with self._state:
                self._in_flight += len(batch)
            self._pool.submit(self._process_batch, batch)

    def _label_batch(self, items: list[DataItem], spec: LabelingSpec):
        """One engine dispatch; isolated so tests can observe batch makeup."""
        return self.engine.label_batch(items, spec, truth=self.truth)

    def _process_batch(self, batch: list[LabelingRequest]) -> None:
        started = self._clock()
        spec = batch[0].spec or self.default_spec
        worker = threading.current_thread().name
        try:
            if not self._backend_counts:
                self.telemetry.observe_dispatch(worker, len(batch))
            if self.tracer is not None:
                for request in batch:
                    if request.trace is not None:
                        request.trace.add("scheduled", worker=worker)
            results = self._label_batch([request.item for request in batch], spec)
        except BaseException as exc:  # propagate to every caller, keep serving
            for request in batch:
                self._resolve(request, error=exc)
        else:
            elapsed = self._clock() - started
            for request, result in zip(batch, results):
                self.telemetry.observe_service_time(elapsed)
                self._resolve(request, result=result)
        finally:
            # Micro-batch boundary = the ``batch`` fsync cadence: every
            # terminal this batch settled becomes durable in one fsync.
            self._journal_flush()
            with self._state:
                self._in_flight -= len(batch)
                self._state.notify_all()
            self._slots.release()
