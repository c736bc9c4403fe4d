"""Per-key FIFO dispatch buckets with weighted-fair key selection.

The queue is the admission layer of the serving tier.  It holds
:class:`LabelingRequest` records between ``submit()`` and dispatch, and
enforces the policies the dispatch loop should never have to think about:

* **Per-key buckets** — requests land in one FIFO ``deque`` per
  :attr:`~repro.spec.LabelingSpec.batch_key` (same regime / deadline class
  / memory budget).  Admission appends to a deque and batch formation pops
  from one, so both are O(1)-amortized per request — no cross-key heap
  scans under the queue lock (the PR-3 grouper re-walked every
  different-key entry per arrival, O(depth)).
* **Weighted fairness** — :meth:`pop_batch` picks the bucket to serve by
  stride scheduling: every bucket carries a virtual-time ``pass`` value,
  the lowest pass wins, and serving ``n`` items advances the winner's pass
  by ``n / weight`` where the weight grows with the batch's highest
  priority.  High-priority buckets are served proportionally more often,
  but a backlogged low-priority bucket's pass stays put while everyone
  else's advances, so it is always selected within a bounded number of
  batches — sustained high-priority cross-traffic can no longer starve a
  regime (the PR-3 grouper anchored strictly by priority and could).
  Within one bucket requests pop strictly FIFO; a request's priority
  raises its whole bucket's service rate instead of reordering its
  neighbours.
* **Backpressure** — depth is bounded by ``max_depth``.  When full, the
  ``overflow`` policy either rejects immediately (:class:`QueueFull`) or
  blocks the producer until space frees up (with an optional timeout).
* **Deadline admission** — a request whose remaining deadline cannot cover
  even the cheapest model's execution cost can never produce a label, so
  it is dropped instead of wasting a batch slot: at ``put`` time with
  :class:`DeadlineExpired`, silently into the expired list as
  :meth:`pop_batch` reaches it, or — so a bucket the dispatcher is not
  currently serving settles its doomed requests promptly — via
  :meth:`expire_overdue`, which the service calls on a timer tick.
* **Homogeneous grouping** — every batch :meth:`pop_batch` forms contains
  only requests from one bucket, i.e. one ``batch_key``.  A flush whose
  timer expired while other-key traffic waited is reported as
  ``"regime_split"`` so operators can see grouping at work.

Request deadlines are wall-clock budgets in seconds from submission, the
same currency as the zoo's per-model costs — queue wait spends the same
budget the scheduler spends executing models, mirroring the paper's
deadline-constrained regime end to end.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.data.datasets import DataItem
from repro.spec import LabelingSpec

#: Slack applied to deadline comparisons so float arithmetic on budgets
#: never drops a request that exactly affords the cheapest model.
_DEADLINE_EPS = 1e-9

#: Overflow policies: reject new requests vs. block the producer.
OVERFLOW_POLICIES = ("block", "reject")

#: Priority exponent clamp for stride weights: keeps ``2.0 ** priority``
#: finite and the worst-case service-rate ratio between two buckets
#: bounded, so aging always drains a backlogged bucket in bounded rounds.
_PRIORITY_CLAMP = 32


def priority_weight(priority: int) -> float:
    """Stride-scheduling weight of a priority class (always positive)."""
    return 2.0 ** min(max(priority, -_PRIORITY_CLAMP), _PRIORITY_CLAMP)


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class QueueFull(ServingError):
    """The admission queue is at ``max_depth`` and the request was refused."""


class DeadlineExpired(ServingError):
    """The request's remaining deadline cannot cover any model execution."""


class ServiceStopped(ServingError):
    """The service is no longer accepting or processing requests."""


@dataclass(eq=False)
class LabelingRequest:
    """One client request: an item, its admission terms, and its future."""

    item: DataItem
    #: Raises the owning bucket's service rate; FIFO within the bucket.
    priority: int = 0
    #: Optional wall-clock budget in seconds, counted from ``submitted_at``.
    deadline: float | None = None
    #: Queue-clock timestamp of submission.
    submitted_at: float = 0.0
    #: Scheduling constraints this request labels under (``None`` groups
    #: with other spec-less requests; the service always attaches one).
    spec: LabelingSpec | None = None
    #: Result-cache key this request fills on completion (``None`` when
    #: the service runs without a cache).
    cache_key: tuple | None = None
    #: Live :class:`~repro.obs.trace.RequestTrace` span following this
    #: request through the pipeline (``None`` without tracing).
    trace: object | None = None
    #: Write-ahead journal sequence of this request's admission record
    #: (``None`` when the service runs without a journal, or for replayed
    #: requests whose original admission record is settled by the
    #: recovery callback instead).
    journal_seq: int | None = None
    #: Resolves to a :class:`~repro.engine.results.LabelingResult` or an error.
    future: Future = field(default_factory=Future)

    def remaining(self, now: float) -> float:
        """Deadline budget left at time ``now`` (infinite when unconstrained)."""
        if self.deadline is None:
            return math.inf
        return self.deadline - (now - self.submitted_at)

    @property
    def batch_key(self):
        """Grouping key: requests may share a batch iff their keys match."""
        return self.spec.batch_key if self.spec is not None else None

    @property
    def tenant(self) -> str | None:
        """Owning tenant (``None`` for untenanted / in-process callers)."""
        return self.spec.tenant if self.spec is not None else None


@dataclass(frozen=True)
class BulkAdmission:
    """Outcome of :meth:`RequestQueue.put_many`, partitioned by fate."""

    #: Requests enqueued and awaiting dispatch.
    admitted: tuple[LabelingRequest, ...]
    #: Requests whose deadline cannot cover the cheapest model.
    expired: tuple[LabelingRequest, ...]
    #: Requests refused by the depth bound (reject policy or block timeout).
    rejected: tuple[LabelingRequest, ...]
    #: Requests refused because the queue closed or started draining mid-call.
    stopped: tuple[LabelingRequest, ...]


class _Bucket:
    """One batch_key's FIFO backlog plus its fair-share bookkeeping."""

    __slots__ = ("key", "items", "pass_value", "deadlined", "pinned")

    def __init__(self, key, pass_value: float):
        self.key = key
        #: FIFO backlog of ``(seq, request)`` pairs.
        self.items: deque[tuple[int, LabelingRequest]] = deque()
        #: Stride-scheduling virtual time; lowest pass is served next.
        self.pass_value = pass_value
        #: Queued requests carrying an admission deadline.
        self.deadlined = 0
        #: Consumers currently forming a batch anchored on this bucket
        #: (guards against pruning a bucket a pop is still filling from).
        self.pinned = 0

    def push(self, seq: int, request: LabelingRequest) -> None:
        self.items.append((seq, request))
        if request.deadline is not None:
            self.deadlined += 1

    def forget(self, request: LabelingRequest) -> None:
        """Bookkeeping for one request removed from ``items``."""
        if request.deadline is not None:
            self.deadlined -= 1


class RequestQueue:
    """Bounded, deadline-checking buffer of per-key FIFO dispatch buckets.

    Parameters
    ----------
    max_depth:
        Backpressure bound: most requests buffered at once (all buckets).
    overflow:
        ``"block"`` makes :meth:`put` wait for space (until ``timeout``);
        ``"reject"`` raises :class:`QueueFull` immediately.
    min_cost:
        The cheapest model's execution cost in seconds — the admission
        bar a request's remaining deadline must clear.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        max_depth: int = 1024,
        overflow: str = "block",
        min_cost: float = 0.0,
        clock=time.monotonic,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; "
                f"choose from {sorted(OVERFLOW_POLICIES)}"
            )
        if min_cost < 0:
            raise ValueError("min_cost must be non-negative")
        self.max_depth = max_depth
        self.overflow = overflow
        self.min_cost = float(min_cost)
        self._clock = clock
        self._seq = 0
        self._cond = threading.Condition()
        self._closed = False
        self._draining = False
        #: batch_key -> bucket, holding exactly the keys with queued (or
        #: batch-forming) traffic: emptied buckets are pruned after every
        #: pop/expiry sweep, so a long-lived queue seeing unbounded
        #: distinct keys (every float deadline is its own key) stays
        #: bounded by concurrent traffic, not by history.
        self._buckets: dict = {}
        self._depth = 0
        #: Global stride-scheduling virtual time (pass of the last-served
        #: bucket); newly ready buckets join at this point, never earlier,
        #: so an idle bucket cannot bank credit against active ones.
        self._vtime = 0.0

    # -- state ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently buffered (across all buckets)."""
        with self._cond:
            return self._len_locked()

    def __len__(self) -> int:
        return self.depth

    def _len_locked(self) -> int:
        return self._depth

    def _admissible(self, request: LabelingRequest, now: float) -> bool:
        return request.remaining(now) >= self.min_cost - _DEADLINE_EPS

    # -- producer side -------------------------------------------------------

    def _bucket_key(self, request: LabelingRequest):
        """The bucket a request queues into (hook for subclasses).

        The flat queue buckets purely by ``batch_key``;
        :class:`~repro.serving.hierarchy.HierarchicalRequestQueue`
        overrides this to ``(tenant, batch_key)`` so batches stay
        single-tenant.
        """
        return request.batch_key

    def _store_locked(self, request: LabelingRequest) -> None:
        """Append one admitted request to its bucket, O(1)."""
        key = self._bucket_key(request)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key, self._vtime)
        elif not bucket.items:
            # Ready again after an idle stretch: re-enter the round at the
            # current virtual time (keep any outstanding debt).
            bucket.pass_value = max(bucket.pass_value, self._vtime)
        bucket.push(self._seq, request)
        self._seq += 1
        self._depth += 1

    def _admit_locked(
        self,
        request: LabelingRequest,
        deadline_at: float | None,
        block: bool,
    ) -> str:
        """Admit one request under ``self._cond``; returns its fate.

        The single admission sequence :meth:`put`, :meth:`put_many` and
        :meth:`put_replayed` share: closed-check, deadline admissibility,
        depth bound (with ``block``, waiting for space until
        ``deadline_at``; without, refusing a full queue immediately),
        push, and a consumer wake-up after every successful push — so a
        bulk producer that later blocks for space has already made its
        pushed requests dispatchable.

        Fates: ``"admitted"``, ``"expired"``, ``"rejected"`` (depth bound
        refused: full without ``block``, or out of time with it),
        ``"stopped"``.
        """
        if self._closed or self._draining:
            return "stopped"
        if not self._admissible(request, self._clock()):
            return "expired"
        if self._len_locked() >= self.max_depth:
            if not block:
                return "rejected"
            remaining = (
                None if deadline_at is None else deadline_at - self._clock()
            )
            if not self._cond.wait_for(
                lambda: self._len_locked() < self.max_depth
                or self._closed
                or self._draining,
                remaining,
            ):
                return "rejected"
            if self._closed or self._draining:
                return "stopped"
        self._store_locked(request)
        self._cond.notify_all()
        return "admitted"

    def expired_error(self, request: LabelingRequest) -> DeadlineExpired:
        """The admission-expiry error for ``request`` (shared wording for
        the raise-on-put and settle-on-future paths)."""
        return DeadlineExpired(
            f"deadline {request.deadline}s cannot cover the cheapest "
            f"model cost {self.min_cost}s"
        )

    def rejected_error(
        self, timeout: float | None, nowait: bool = False
    ) -> QueueFull:
        """The depth-refusal error under the current overflow policy."""
        if nowait:
            return QueueFull(
                f"queue at max depth {self.max_depth} (nowait admission)"
            )
        if self.overflow == "reject":
            return QueueFull(
                f"queue at max depth {self.max_depth} (overflow policy: reject)"
            )
        return QueueFull(
            f"queue stayed at max depth {self.max_depth} "
            f"for {timeout}s (overflow policy: block)"
        )

    def put(
        self,
        request: LabelingRequest,
        timeout: float | None = None,
        nowait: bool = False,
    ) -> None:
        """Admit one request, enforcing deadline and depth policies.

        Raises :class:`DeadlineExpired` when the request can never afford
        the cheapest model, :class:`QueueFull` when depth policy refuses
        it, and :class:`ServiceStopped` when the queue is closed.
        ``nowait`` raises :class:`QueueFull` immediately on a full queue
        regardless of the overflow policy — the producer never blocks.
        """
        deadline_at = None if timeout is None else self._clock() + timeout
        block = not nowait and self.overflow == "block"
        with self._cond:
            fate = self._admit_locked(request, deadline_at, block)
        if fate == "stopped":
            raise ServiceStopped("queue is not accepting new requests")
        if fate == "expired":
            raise self.expired_error(request)
        if fate == "rejected":
            raise self.rejected_error(timeout, nowait=nowait)

    def put_many(
        self,
        requests: list[LabelingRequest],
        timeout: float | None = None,
        nowait: bool = False,
    ) -> BulkAdmission:
        """Admit many requests under one lock round.

        The bulk counterpart of :meth:`put`: all bookkeeping happens inside
        a single condition acquisition (the ``block`` overflow policy may
        still release it while waiting for space).  Unlike :meth:`put`,
        admission failures never raise mid-stream — each request lands in
        exactly one :class:`BulkAdmission` bucket, so the caller can settle
        per-request futures — except when the queue is already closed,
        which raises :class:`ServiceStopped` before anything is admitted.

        Under ``block`` overflow, ``timeout`` bounds the *total* time spent
        waiting for space across the whole call; ``nowait`` rejects on a
        full queue immediately instead of waiting at all.
        """
        deadline_at = None if timeout is None else self._clock() + timeout
        return self._admit_many(
            requests, deadline_at, block=not nowait and self.overflow == "block"
        )

    def put_replayed(self, requests: list[LabelingRequest]) -> BulkAdmission:
        """Admit requests a previous life already answered "admitted".

        The journal-recovery entry point: like :meth:`put_many`, but a
        full queue always waits for space, whatever the overflow policy
        — acknowledged work is never ``rejected`` a second time.
        """
        return self._admit_many(requests, None, block=True)

    def _admit_many(
        self,
        requests: list[LabelingRequest],
        deadline_at: float | None,
        block: bool,
    ) -> BulkAdmission:
        buckets: dict[str, list[LabelingRequest]] = {
            "admitted": [],
            "expired": [],
            "rejected": [],
            "stopped": [],
        }
        with self._cond:
            if self._closed or self._draining:
                raise ServiceStopped("queue is not accepting new requests")
            for request in requests:
                fate = self._admit_locked(request, deadline_at, block)
                buckets[fate].append(request)
        return BulkAdmission(
            admitted=tuple(buckets["admitted"]),
            expired=tuple(buckets["expired"]),
            rejected=tuple(buckets["rejected"]),
            stopped=tuple(buckets["stopped"]),
        )

    # -- consumer side -------------------------------------------------------

    def _select_locked(self) -> "_Bucket | None":
        """The non-empty bucket stride scheduling serves next.

        Lowest pass value wins; ties break FIFO by the head request's
        submission sequence, so freshly ready buckets are anchored in
        arrival order.  Scans one entry per *distinct key* (a handful of
        regimes), not per queued request.
        """
        best = None
        best_rank = None
        for bucket in self._buckets.values():
            if not bucket.items:
                continue
            rank = (bucket.pass_value, bucket.items[0][0])
            if best is None or rank < best_rank:
                best, best_rank = bucket, rank
        return best

    def _charge_locked(self, bucket: "_Bucket", batch: list[LabelingRequest]):
        """Advance virtual time for one dispatched batch.

        The bucket pays ``n / weight`` where the weight comes from the
        batch's highest priority — serving a high-priority batch is cheap,
        so its bucket comes up again sooner, while every other bucket's
        pass stands still (that standing-still is the aging guarantee).
        """
        weight = priority_weight(max(r.priority for r in batch))
        self._vtime = max(self._vtime, bucket.pass_value)
        bucket.pass_value = self._vtime + len(batch) / weight

    def _other_pending_locked(self, bucket: "_Bucket") -> bool:
        return any(
            other.items for other in self._buckets.values() if other is not bucket
        )

    def _prune_locked(self) -> None:
        """Drop emptied buckets so ``_buckets`` tracks only live traffic.

        Every distinct key ever seen would otherwise pin a bucket forever
        (a float deadline is its own key, so long-lived services see
        unbounded key cardinality) and every per-batch key scan would pay
        for it.  A pruned key that returns re-enters at the current
        virtual time — exactly where a retained *credit-free* bucket
        would re-enter — so the only thing forgotten is the residual debt
        of a key whose backlog fully drained, worth at most one extra
        batch on its next burst.  Buckets a consumer is still anchored on
        are kept (their deque must stay live for same-key arrivals).
        """
        stale = [
            key
            for key, bucket in self._buckets.items()
            if not bucket.items and not bucket.pinned
        ]
        for key in stale:
            del self._buckets[key]

    def pop_batch(
        self, max_items: int, max_wait: float
    ) -> tuple[list[LabelingRequest], list[LabelingRequest], str | None]:
        """Form one homogeneous micro-batch: ``(batch, expired, reason)``.

        Blocks until at least one request is available, then serves the
        bucket stride scheduling selects: up to ``max_items`` requests pop
        from that one deque in FIFO order.  Other buckets are never
        touched, so a forming batch costs O(1) per request plus one
        O(#keys) selection per batch.  Requests whose deadline ran out
        while queued land in ``expired`` instead of the batch.

        ``reason`` is ``"size"`` (batch filled), ``"wait"`` (``max_wait``
        elapsed since the batch started forming), ``"regime_split"``
        (the timer elapsed on an underfull batch while different-key
        requests waited — the batch was bounded by grouping, not by
        traffic), ``"drain"`` (queue draining or closing flushed a partial
        batch), or ``None`` with both lists empty once the queue is closed
        and empty — the consumer's signal to exit.
        """
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        with self._cond:
            while self._depth == 0 and not self._closed:
                self._cond.wait()
            if self._depth == 0:
                return [], [], None
            batch: list[LabelingRequest] = []
            expired: list[LabelingRequest] = []
            anchor: _Bucket | None = None
            saw_other = False
            flush_at = self._clock() + max_wait
            try:
                while True:
                    now = self._clock()
                    while len(batch) < max_items:
                        if anchor is None:
                            anchor = self._select_locked()
                            if anchor is None:
                                break  # every bucket is empty
                            anchor.pinned += 1
                        if not anchor.items:
                            if batch:
                                break  # wait for same-key arrivals
                            anchor.pinned -= 1
                            anchor = None  # all expired; pick another bucket
                            continue
                        _, request = anchor.items.popleft()
                        anchor.forget(request)
                        self._depth -= 1
                        if self._admissible(request, now):
                            batch.append(request)
                        else:
                            expired.append(request)
                    if batch or expired:
                        self._cond.notify_all()  # space freed for producers
                    if len(batch) >= max_items:
                        self._charge_locked(anchor, batch)
                        return batch, expired, "size"
                    if self._closed or self._draining:
                        if batch:
                            self._charge_locked(anchor, batch)
                        return batch, expired, "drain"
                    if batch:
                        saw_other = (
                            saw_other or self._other_pending_locked(anchor)
                        )
                    remaining = flush_at - self._clock()
                    if remaining <= 0:
                        if batch:
                            self._charge_locked(anchor, batch)
                            reason = "regime_split" if saw_other else "wait"
                            return batch, expired, reason
                        return [], expired, "wait"
                    if not batch and expired:
                        # Nothing to form a batch from on this pass; hand
                        # the doomed requests back promptly instead of
                        # waiting out the flush timer with their futures
                        # unsettled.
                        return [], expired, "wait"
                    self._cond.wait(remaining)
            finally:
                if anchor is not None:
                    anchor.pinned -= 1
                self._prune_locked()

    def expire_overdue(self, now: float | None = None) -> list[LabelingRequest]:
        """Remove and return every queued request past its deadline.

        :meth:`pop_batch` only examines the bucket it is serving, so a
        doomed request in a bucket the dispatcher is busy elsewhere on
        would otherwise wait for its turn just to be dropped.  The service
        calls this on a timer tick to settle such futures promptly.  Cheap
        when nothing can expire: buckets with no deadline-carrying
        requests are skipped without scanning.
        """
        removed: list[LabelingRequest] = []
        with self._cond:
            when = self._clock() if now is None else now
            for bucket in self._buckets.values():
                if not bucket.deadlined:
                    continue
                kept: deque[tuple[int, LabelingRequest]] = deque()
                for seq, request in bucket.items:
                    if self._admissible(request, when):
                        kept.append((seq, request))
                    else:
                        bucket.forget(request)
                        self._depth -= 1
                        removed.append(request)
                bucket.items = kept
            if removed:
                self._prune_locked()
                self._cond.notify_all()  # space freed for blocked producers
        return removed

    # -- lifecycle -----------------------------------------------------------

    def start_drain(self) -> None:
        """Refuse new requests and flush forming batches immediately."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def close(self) -> list[LabelingRequest]:
        """Close the queue and return the requests left undispatched.

        Wakes every blocked producer (:class:`ServiceStopped`) and consumer
        (final drain flushes, then the ``None``-reason exit signal).
        Leftovers come back in global submission (FIFO) order.
        """
        with self._cond:
            self._closed = True
            entries = [
                entry for bucket in self._buckets.values() for entry in bucket.items
            ]
            leftovers = [request for _, request in sorted(entries)]
            self._buckets.clear()
            self._depth = 0
            self._cond.notify_all()
            return leftovers
