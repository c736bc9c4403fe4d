"""Per-key FIFO dispatch buckets under two-level (tenant, key) stride fairness.

The queue is the admission layer of the serving tier.  It holds
:class:`LabelingRequest` records between ``submit()`` and dispatch, and
enforces the policies the dispatch loop should never have to think about:

* **Per-key buckets** — requests land in one FIFO ``deque`` per
  ``(tenant, batch_key)`` — the spec's owner and its regime / deadline
  class / memory budget.  Admission appends to a deque and batch
  formation pops from one, so both are O(1)-amortized per request — no
  cross-key scans under the queue lock.
* **Tenant fairness** — :meth:`pop_batch` first picks the tenant by
  stride scheduling: every tenant with queued work carries a virtual-time
  ``pass`` value, the lowest pass wins, and serving ``n`` items advances
  the winner's pass by ``n / tenant_weight``.  A backlogged tenant's pass
  stands still while served tenants' advance, so every tenant is selected
  within a bounded number of batches however hard another one pushes.
  Untagged traffic (``tenant=None``) is one tenant like any other, so on
  single-tenant traffic this level always picks the one group.
* **Weighted fairness** — within that tenant the same stride rule picks
  the bucket: the lowest bucket pass wins, and serving ``n`` items
  advances it by ``n / weight`` where the weight grows with the batch's
  highest priority.  High-priority buckets are
  served proportionally more often, but a backlogged low-priority bucket's
  pass stays put while everyone else's advances, so it is always selected
  within a bounded number of batches — sustained high-priority
  cross-traffic cannot starve a regime.  Within one bucket requests pop
  strictly FIFO; a request's priority raises its whole bucket's service
  rate instead of reordering its neighbours.
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
  only requests from one bucket, i.e. one tenant and one ``batch_key``.
  A flush whose timer expired while other-bucket traffic waited is
  reported as ``"regime_split"`` so operators can see grouping at work.

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


class _TenantGroup:
    """One tenant's buckets plus its outer-stride bookkeeping."""

    __slots__ = ("weight", "pass_value", "vtime", "depth", "buckets")

    def __init__(self, weight: float, pass_value: float):
        #: Outer stride weight: serving ``n`` items costs ``n / weight``.
        self.weight = weight
        #: Outer stride pass; the lowest-pass tenant is served next.
        self.pass_value = pass_value
        #: Inner virtual time (see :func:`_settle_level`); newly ready
        #: buckets join at this point, never earlier, so an idle bucket
        #: cannot bank credit against active ones.
        self.vtime = 0.0
        #: Requests queued across this tenant's buckets.
        self.depth = 0
        #: batch_key -> bucket: this tenant's keys with queued (or
        #: batch-forming) traffic, and drained ones still owing debt.
        self.buckets: dict = {}

    def head_seq(self) -> int:
        """Earliest queued submission sequence across the buckets."""
        return min(b.items[0][0] for b in self.buckets.values() if b.items)


class _Bucket:
    """One (tenant, batch_key) FIFO backlog plus its fair-share bookkeeping."""

    __slots__ = ("group", "items", "pass_value", "deadlined", "pinned")

    def __init__(self, group: _TenantGroup, pass_value: float):
        #: The owning tenant's group.
        self.group = group
        #: FIFO backlog of ``(seq, request)`` pairs.
        self.items: deque[tuple[int, LabelingRequest]] = deque()
        #: Inner stride virtual time; lowest pass is served next.
        self.pass_value = pass_value
        #: Queued requests carrying an admission deadline.
        self.deadlined = 0
        #: Consumers currently forming a batch anchored on this bucket
        #: (guards against pruning a bucket a pop is still filling from).
        self.pinned = 0

    def push(self, seq: int, request: LabelingRequest) -> None:
        self.items.append((seq, request))
        self.group.depth += 1
        if request.deadline is not None:
            self.deadlined += 1

    def forget(self, request: LabelingRequest) -> None:
        """Bookkeeping for one request removed from ``items``."""
        self.group.depth -= 1
        if request.deadline is not None:
            self.deadlined -= 1


def _settle_level(vtime: float, entries: dict, queued, held) -> float:
    """Prune one stride level of ``entries`` (buckets or groups).

    Drained entries (not ``queued``, not ``held``) lift the virtual time
    to their highest pass, but never past the lowest queued pass, so a
    newcomer never joins behind a queued entry.  A drained entry is kept,
    empty, until the virtual time reaches its pass: a return re-enters
    there and keeps its debt instead of winning every pick.
    """
    drained = [n for n, e in entries.items() if not queued(e) and not held(e)]
    if drained:
        owed = max(entries[name].pass_value for name in drained)
        live = [e.pass_value for e in entries.values() if queued(e)]
        vtime = max(vtime, min([owed, *live]))
        for name in drained:
            if entries[name].pass_value <= vtime:
                del entries[name]
    return vtime


class RequestQueue:
    """Bounded, deadline-checking, tenant-fair buffer of FIFO buckets.

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
    tenant_weights:
        Optional mapping of tenant name to a positive, finite service
        weight (a weight-4 tenant is served 4x the batch share of a
        weight-1 one under contention).
    default_tenant_weight:
        Weight of tenants absent from ``tenant_weights``, including the
        ``None`` tenant of untagged requests.
    """

    def __init__(
        self,
        max_depth: int = 1024,
        overflow: str = "block",
        min_cost: float = 0.0,
        clock=time.monotonic,
        tenant_weights: dict[str, float] | None = None,
        default_tenant_weight: float = 1.0,
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
        self._tenant_weights = dict(tenant_weights or {})
        for name, weight in [
            ("default_tenant_weight", default_tenant_weight),
            *((f"tenant weight for {t!r}", w) for t, w in self._tenant_weights.items()),
        ]:
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"{name} must be positive and finite, got {weight}")
        self._default_tenant_weight = float(default_tenant_weight)
        self.max_depth = max_depth
        self.overflow = overflow
        self.min_cost = float(min_cost)
        self._clock = clock
        self._seq = 0
        self._cond = threading.Condition()
        self._closed = False
        self._draining = False
        #: tenant -> group, holding the tenants and keys with queued (or
        #: batch-forming) traffic plus drained ones still owing stride
        #: debt: the rest are pruned after every pop/expiry sweep, so a
        #: long-lived queue seeing unbounded distinct keys stays bounded
        #: by recent traffic, not by history.
        self._groups: dict = {}
        self._depth = 0
        #: Outer stride virtual time (see :func:`_settle_level`); newly
        #: ready tenants join at this point, never earlier, so an idle
        #: tenant cannot bank credit against active ones.
        self._vtime = 0.0

    # -- state ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently buffered (across all buckets)."""
        with self._cond:
            return self._depth

    def __len__(self) -> int:
        return self.depth

    def _admissible(self, request: LabelingRequest, now: float) -> bool:
        return request.remaining(now) >= self.min_cost - _DEADLINE_EPS

    # -- producer side -------------------------------------------------------

    def _store_locked(self, request: LabelingRequest) -> None:
        """Append one admitted request to its tenant's bucket, O(1).

        A tenant or bucket that is ready again after an idle stretch
        re-enters its round at the current virtual time of its level
        (keeping any outstanding debt).
        """
        group = self._groups.get(request.tenant)
        if group is None:
            weight = self._tenant_weights.get(
                request.tenant, self._default_tenant_weight
            )
            group = self._groups[request.tenant] = _TenantGroup(weight, self._vtime)
        elif not group.depth:
            group.pass_value = max(group.pass_value, self._vtime)
        bucket = group.buckets.get(request.batch_key)
        if bucket is None:
            bucket = group.buckets[request.batch_key] = _Bucket(group, group.vtime)
        elif not bucket.items:
            bucket.pass_value = max(bucket.pass_value, group.vtime)
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
        if self._depth >= self.max_depth:
            if not block:
                return "rejected"
            remaining = (
                None if deadline_at is None else deadline_at - self._clock()
            )
            if not self._cond.wait_for(
                lambda: self._depth < self.max_depth
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
        """The bucket two-level stride scheduling serves next.

        The outer pass picks the tenant, the inner pass the bucket within
        it.  Both rank by ``(pass_value, earliest head sequence)``: lowest
        pass wins, ties break FIFO by arrival, so freshly ready entries
        are anchored in arrival order.  Scans one entry per live tenant
        and per distinct key of the winner, not per queued request.
        """
        group = min(
            (group for group in self._groups.values() if group.depth),
            key=lambda group: (group.pass_value, group.head_seq()),
            default=None,
        )
        if group is None:
            return None
        return min(
            (bucket for bucket in group.buckets.values() if bucket.items),
            key=lambda bucket: (bucket.pass_value, bucket.items[0][0]),
        )

    def _charge_locked(self, bucket: "_Bucket", batch: list[LabelingRequest]):
        """Advance both strides for one dispatched batch.

        The bucket's pass grows by ``n / weight`` (weight from the batch's
        highest priority), the tenant's by ``n / tenant_weight``.  Every
        other pass stands still — the aging guarantee.
        """
        group = bucket.group
        group.vtime = max(group.vtime, bucket.pass_value)
        weight = priority_weight(max(r.priority for r in batch))
        bucket.pass_value += len(batch) / weight
        self._vtime = max(self._vtime, group.pass_value)
        group.pass_value += len(batch) / group.weight

    def _prune_locked(self) -> None:
        """Drop drained buckets and groups once they owe no stride debt.

        Every distinct key ever seen would otherwise pin a bucket forever
        (a float deadline is its own key) and every per-batch key scan
        would pay for it.  Buckets a consumer is still anchored on are
        kept (their deque must stay live for same-key arrivals).
        """
        for group in self._groups.values():
            group.vtime = _settle_level(
                group.vtime, group.buckets, lambda b: b.items, lambda b: b.pinned
            )
        self._vtime = _settle_level(
            self._vtime, self._groups, lambda g: g.depth, lambda g: g.buckets
        )

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
                        saw_other = saw_other or self._depth > len(anchor.items)
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
            for bucket in self._buckets_locked():
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

    def _buckets_locked(self) -> list[_Bucket]:
        return [b for group in self._groups.values() for b in group.buckets.values()]

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
            entries = [entry for b in self._buckets_locked() for entry in b.items]
            leftovers = [request for _, request in sorted(entries)]
            self._groups.clear()
            self._depth = 0
            self._cond.notify_all()
            return leftovers

    # -- introspection -------------------------------------------------------

    def tenant_depths(self) -> dict[str | None, int]:
        """Queued requests per tenant right now (live tenants only)."""
        with self._cond:
            return {t: g.depth for t, g in self._groups.items() if g.depth}
