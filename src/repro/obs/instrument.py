"""Dispatch-tick instrumentation: the hooks the hot path actually calls.

The lock-step driver behind every ``schedule_batch``
(:func:`repro.scheduling.base.run_lockstep`) is the system's hot loop — per
round, one stacked Q-forward over the rows whose observation changed and one
masked argmax — and the engine's ``_run_batch`` wraps every backend dispatch.
Both ask this module for an observer; when nothing is installed the answer is
``None`` and the hot path pays exactly one module-global read and one branch,
with **zero** timing calls — that near-free bare path is what lets the overhead
benchmark compare instrumented against uninstrumented dispatch honestly.

:func:`install` binds a :class:`TickInstrumentation` to a
:class:`~repro.obs.registry.MetricsRegistry`; from then on every
schedule tick records, per regime:

* ``repro_sched_tick_seconds``        — per-round tick duration (summary)
* ``repro_sched_rounds_total``        — selection rounds (forwards ≤ rounds)
* ``repro_sched_models_executed_total`` — model executions (= trace lengths)
* ``repro_sched_batches_total`` / ``repro_sched_batch_items_total``

and every engine dispatch records, per backend and regime:

* ``repro_engine_batches_total`` / ``repro_engine_items_total``
* ``repro_engine_batch_seconds``      — whole-dispatch duration (summary)

A :class:`BatchTickObserver` accumulates locally (plain attribute adds on
an object owned by one thread) and flushes into the registry **once** per
batch in :meth:`~BatchTickObserver.done`, so per-round cost inside the
lock-step loop is two ``perf_counter`` calls and a couple of adds.

Installation is process-global on purpose: schedulers are constructed
ad hoc deep inside backends, so threading a registry handle through every
call chain would touch a dozen signatures for the same effect.  Workers
of the process backend run in *other* processes and are therefore not
covered by these hooks — their timings arrive via the backend's
``chunk_stats``, exported by the serving bridge.
"""

from __future__ import annotations

import threading

from repro.obs.registry import MetricsRegistry

__all__ = [
    "BatchTickObserver",
    "TickInstrumentation",
    "batch_observer",
    "engine_observer",
    "install",
    "installed",
    "uninstall",
]

_LOCK = threading.Lock()
_ACTIVE: "TickInstrumentation | None" = None


class TickInstrumentation:
    """The registry-bound sink for scheduler-tick and engine-batch events."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._tick_seconds = registry.histogram(
            "repro_sched_tick_seconds",
            "Duration of one vectorized dispatch-tick round",
            labelnames=("regime",),
        )
        self._rounds = registry.counter(
            "repro_sched_rounds_total",
            "Dispatch-tick selection rounds (a Q-forward only if a row is stale)",
            labelnames=("regime",),
        )
        self._models = registry.counter(
            "repro_sched_models_executed_total",
            "Model executions selected by dispatch ticks",
            labelnames=("regime",),
        )
        self._batches = registry.counter(
            "repro_sched_batches_total",
            "Vectorized schedule_batch calls",
            labelnames=("regime",),
        )
        self._batch_items = registry.counter(
            "repro_sched_batch_items_total",
            "Items entering schedule_batch calls",
            labelnames=("regime",),
        )
        self._engine_batches = registry.counter(
            "repro_engine_batches_total",
            "Engine batch dispatches",
            labelnames=("backend", "regime"),
        )
        self._engine_items = registry.counter(
            "repro_engine_items_total",
            "Items dispatched through the engine",
            labelnames=("backend", "regime"),
        )
        self._engine_seconds = registry.histogram(
            "repro_engine_batch_seconds",
            "Wall seconds per engine batch dispatch (record+schedule)",
            labelnames=("backend", "regime"),
        )

    def observe_batch(
        self, regime: str, items: int, rounds: int, executed: int, ticks
    ) -> None:
        """Fold one finished schedule_batch into the registry."""
        self._batches.labels(regime=regime).inc()
        self._batch_items.labels(regime=regime).inc(items)
        self._rounds.labels(regime=regime).inc(rounds)
        self._models.labels(regime=regime).inc(executed)
        hist = self._tick_seconds.labels(regime=regime)
        for seconds in ticks:
            hist.observe(seconds)

    def observe_engine(
        self, backend: str, regime: str, items: int, seconds: float
    ) -> None:
        self._engine_batches.labels(backend=backend, regime=regime).inc()
        self._engine_items.labels(backend=backend, regime=regime).inc(items)
        self._engine_seconds.labels(backend=backend, regime=regime).observe(seconds)


class BatchTickObserver:
    """Per-call accumulator handed to one schedule_batch invocation.

    Owned by the calling thread — plain attribute math, no locks — and
    flushed into the shared registry exactly once, in :meth:`done`.
    """

    __slots__ = ("_sink", "regime", "items", "rounds", "executed", "ticks")

    def __init__(self, sink: TickInstrumentation, regime: str, items: int):
        self._sink = sink
        self.regime = regime
        self.items = items
        self.rounds = 0
        self.executed = 0
        self.ticks: list[float] = []

    def tick(self, seconds: float, executed: int = 0) -> None:
        """Record one lock-step round: its duration (and, for a caller
        that knows them per round, the executions it selected)."""
        self.rounds += 1
        self.executed += executed
        self.ticks.append(seconds)

    def done(self, executed: int = 0) -> None:
        """Flush; ``executed`` adds executions counted once at the end —
        the lock-step driver passes the batch's total trace length, which
        in every regime is what its rounds started (fills included)."""
        self.executed += executed
        self._sink.observe_batch(
            self.regime, self.items, self.rounds, self.executed, self.ticks
        )


def install(registry: MetricsRegistry) -> TickInstrumentation:
    """Route dispatch-tick telemetry into ``registry`` (process-global).

    Idempotent for the same registry; installing over a different one
    replaces it (last writer wins — a test or bench tearing down should
    call :func:`uninstall`).
    """
    global _ACTIVE
    with _LOCK:
        if _ACTIVE is None or _ACTIVE.registry is not registry:
            _ACTIVE = TickInstrumentation(registry)
        return _ACTIVE


def uninstall() -> None:
    """Return dispatch paths to the zero-cost uninstrumented state."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


def installed() -> TickInstrumentation | None:
    """The active instrumentation, or ``None`` (the bare-path signal)."""
    return _ACTIVE


def batch_observer(regime: str, items: int) -> BatchTickObserver | None:
    """What a schedule_batch call asks for at entry: its observer or None."""
    active = _ACTIVE
    if active is None:
        return None
    return BatchTickObserver(active, regime, items)


def engine_observer() -> TickInstrumentation | None:
    """The engine's per-dispatch hook (None when uninstrumented)."""
    return _ACTIVE
