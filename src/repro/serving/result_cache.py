"""Spec-keyed result cache with single-flight request coalescing.

A labeling result is a pure function of ``(item, scheduling regime)``:
the engine replays recorded model outputs, so submitting the same item
under the same :attr:`~repro.spec.LabelingSpec.batch_key` always yields
the same :class:`~repro.engine.results.LabelingResult`.  That makes
repeat traffic — hot items in a skewed stream, clients retrying, several
clients asking about the same datum — pure waste for the scheduler.

:class:`ResultCache` sits in front of the admission queue and absorbs it:

* **Bounded LRU** — completed results are cached under
  ``(item_id, batch_key)`` up to ``capacity`` entries; the least recently
  *used* entry is evicted (hits refresh recency).
* **Single-flight** — while a key's first request is queued or executing,
  concurrent submits of the same key attach to the *same* future instead
  of re-queueing the work (``"join"``); only the first submitter
  (``"claim"``) pays for scheduling.  Keys are independent: eviction of a
  cached result never disturbs an in-flight claim for the same key, and
  vice versa.
* **Telemetry** — hits, misses, coalesced joins, evictions, and current
  sizes are tracked and exposed via :meth:`stats`, mirrored into the
  service's counters when wired through
  :class:`~repro.serving.service.LabelingService`.

The cache stores *results*, never ground-truth records — the truth
cache's own holds still decide when a record goes, so a cache in front of
a shared :class:`~repro.zoo.oracle.GroundTruth` still leaves the truth
cache clean after every batch.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

__all__ = ["CacheStats", "ResultCache"]

logger = logging.getLogger("repro.serving.result_cache")


@dataclass(frozen=True)
class CacheStats:
    """One immutable view of a cache's effectiveness."""

    #: Submissions answered from a completed cached result.
    hits: int
    #: Submissions that had to be scheduled (first flight for their key).
    misses: int
    #: Submissions attached to an already in-flight key's future.
    coalesced: int
    #: Completed results dropped by the LRU bound.
    evictions: int
    #: Completed results currently cached.
    size: int
    #: Keys currently claimed but not yet settled.
    inflight: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without scheduling (hits + joins)."""
        total = self.hits + self.misses + self.coalesced
        return (self.hits + self.coalesced) / total if total else 0.0

    def format(self) -> str:
        return (
            f"hits {self.hits}  misses {self.misses}  "
            f"coalesced {self.coalesced}  evictions {self.evictions}  "
            f"size {self.size}  in-flight {self.inflight}  "
            f"hit rate {self.hit_rate:.1%}"
        )


class ResultCache:
    """Bounded LRU of labeling results keyed by ``(item_id, batch_key)``.

    Thread-safe; every operation is one short critical section.  The cache
    never blocks on futures — settlement is push-based via :meth:`settle`.

    Parameters
    ----------
    capacity:
        Most completed results held at once.  In-flight claims are not
        counted against it (they hold no result yet and are bounded by
        the admission queue's depth).
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._results: OrderedDict[tuple, object] = OrderedDict()
        self._inflight: dict[tuple, Future] = {}
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._evictions = 0

    # -- lookup / claim ------------------------------------------------------

    def begin(self, key: tuple, future: Future) -> tuple[str, object]:
        """Route one submission; returns ``(outcome, payload)``.

        * ``("hit", result)`` — a completed result is cached; serve it
          without touching the queue.
        * ``("join", shared_future)`` — the key is in flight; the caller
          must hand back ``shared_future`` instead of queueing.
        * ``("claim", future)`` — first flight: ``future`` (the caller's
          own) is registered as the key's shared future, and the caller
          must schedule the work and later :meth:`settle` the key.

        The decision and registration are atomic, so exactly one of any
        set of concurrent submitters claims a key.
        """
        with self._lock:
            if key in self._results:
                self._hits += 1
                self._results.move_to_end(key)
                return "hit", self._results[key]
            shared = self._inflight.get(key)
            if shared is not None:
                self._coalesced += 1
                return "join", shared
            self._misses += 1
            self._inflight[key] = future
            return "claim", future

    def settle(self, key: tuple, result=None, error=None) -> None:
        """Conclude a claimed key: cache the result, or just release it.

        Called exactly once per claim, when the claimed work concludes
        (the service settles the cache just *before* resolving the shared
        future, so anyone reacting to that future already finds the
        entry).  On success the result enters the LRU (evicting the
        least recently used entry past ``capacity``); on ``error`` the
        claim is simply dropped so a later submission retries — failures
        are never cached.
        """
        with self._lock:
            self._inflight.pop(key, None)
            if error is not None:
                return
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self.capacity:
                evicted, _ = self._results.popitem(last=False)
                self._evictions += 1
                logger.debug(
                    "evicted %r (capacity %d, %d evictions total)",
                    evicted,
                    self.capacity,
                    self._evictions,
                )

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._results

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    @property
    def inflight(self) -> int:
        """Keys currently claimed but not yet settled."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                coalesced=self._coalesced,
                evictions=self._evictions,
                size=len(self._results),
                inflight=len(self._inflight),
            )

    def clear(self) -> None:
        """Drop every cached result (in-flight claims are left alone)."""
        with self._lock:
            self._results.clear()
