"""Per-request trace spans in a bounded, lock-cheap ring buffer.

A request's life through the serving tier is a sequence of staged events:

    admitted -> queued -> batched(flush_reason) -> scheduled
             -> completed | expired | failed | rejected | cancelled

with two short-circuit terminals for cache traffic (``cache_hit`` when a
completed result answers the submission outright, ``coalesced`` when it
attaches to an in-flight duplicate).  :class:`TraceBuffer` records one
:class:`RequestTrace` per request — event stages, monotonic offsets from
admission, and small detail dicts (flush reason, worker name, models
executed) — and keeps the most recent ``capacity`` finished traces in a
ring.  The buffer is what the ``/traces`` endpoint and ``repro.cli
trace`` tail, and what ``serve --trace-export`` dumps as JSON.

Cost model: recording an event is one ``monotonic()`` call and one list
append on the trace itself (each trace has a single writer at any given
stage); finishing is one append to a ``deque(maxlen=...)``.  No global
lock is held while events are recorded, so tracing stays cheap enough to
leave on in production — the overhead benchmark holds the whole
observability layer under its gate with tracing enabled.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque

__all__ = ["RequestTrace", "TraceBuffer", "SPAN_STAGES", "TERMINAL_STAGES"]

#: Stages a request passes through while live, in order.
LIVE_STAGES = ("admitted", "queued", "batched", "scheduled")

#: Stages that end a trace (exactly one per request).
TERMINAL_STAGES = (
    "completed",
    "expired",
    "failed",
    "rejected",
    "cancelled",
    "cache_hit",
    "coalesced",
)

#: Every legal stage name — the trace span schema.
SPAN_STAGES = LIVE_STAGES + TERMINAL_STAGES


class RequestTrace:
    """One request's span: ordered ``(stage, offset_s, detail)`` events.

    ``offset_s`` is seconds since the trace started (monotonic clock);
    ``started_at`` is a wall-clock unix timestamp for human display.
    """

    __slots__ = (
        "trace_id",
        "item_id",
        "regime",
        "started_at",
        "_t0",
        "_clock",
        "events",
        "status",
    )

    def __init__(self, trace_id: int, item_id: str, regime: str, clock):
        self.trace_id = trace_id
        self.item_id = item_id
        self.regime = regime
        self.started_at = time.time()
        self._clock = clock
        self._t0 = clock()
        self.events: list[tuple[str, float, dict]] = []
        #: The terminal stage once finished, else None (still live).
        self.status: str | None = None

    def add(self, stage: str, **detail) -> None:
        """Record one event at the current clock offset."""
        self.events.append((stage, self._clock() - self._t0, detail))

    @property
    def duration(self) -> float:
        """Seconds from start to the last recorded event (0 when empty)."""
        return self.events[-1][1] if self.events else 0.0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "item_id": self.item_id,
            "regime": self.regime,
            "started_at": self.started_at,
            "status": self.status,
            "duration_s": self.duration,
            "events": [
                {"stage": stage, "t": offset, **({"detail": detail} if detail else {})}
                for stage, offset, detail in self.events
            ],
        }


class TraceBuffer:
    """Bounded ring of finished request traces.

    ``start`` hands out a live :class:`RequestTrace`; ``finish`` stamps
    its terminal stage and appends it to the ring, where the oldest
    finished trace is dropped once ``capacity`` is exceeded
    (``deque(maxlen=...)`` — the append itself evicts, no sweep).  Live
    traces are never stored here; a request abandoned without ``finish``
    simply never appears.
    """

    def __init__(self, capacity: int = 512, clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._ids = itertools.count(1)
        self._ring: deque[RequestTrace] = deque(maxlen=capacity)
        self._started = 0
        self._finished = 0

    def start(self, item_id: str, regime: str) -> RequestTrace:
        """A new live trace; the caller records events and must finish it."""
        self._started += 1
        return RequestTrace(next(self._ids), item_id, regime, self._clock)

    def finish(self, trace: RequestTrace, stage: str, **detail) -> None:
        """Stamp the terminal stage and retire the trace into the ring."""
        if stage not in TERMINAL_STAGES:
            raise ValueError(
                f"unknown terminal stage {stage!r}; "
                f"allowed: {sorted(TERMINAL_STAGES)}"
            )
        trace.add(stage, **detail)
        trace.status = stage
        self._finished += 1
        self._ring.append(trace)

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def started(self) -> int:
        return self._started

    @property
    def finished(self) -> int:
        return self._finished

    @property
    def dropped(self) -> int:
        """Finished traces the ring has already evicted."""
        return self._finished - len(self._ring)

    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` finished traces (all, when ``n`` is None),
        oldest first, as JSON-able dicts."""
        traces = list(self._ring)
        if n is not None:
            traces = traces[-n:]
        return [trace.to_dict() for trace in traces]

    def to_json(self, n: int | None = None) -> str:
        return json.dumps(
            {
                "capacity": self.capacity,
                "started": self._started,
                "finished": self._finished,
                "dropped": self.dropped,
                "traces": self.tail(n),
            },
            indent=2,
        )
