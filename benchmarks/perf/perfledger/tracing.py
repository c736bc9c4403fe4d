"""In-memory spans and the timing proxies that record them from outside.

Every proxy subclasses a public ``repro`` class and is injected through a
public constructor argument (``predictor``, ``truth=``, ``backend=``,
``queue_factory=``, ``cache=``, ``journal=``, or the engine itself), so
nothing under ``src/`` knows it is being measured.  Proxies cannot cross
a process boundary: worker processes and the gateway subprocess are
attributed from the parent-side spans plus the counters they expose.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

from repro import GroundTruth, LabelingEngine
from repro.durability.journal import Journal
from repro.engine import ExecutionBackend
from repro.scheduling.qgreedy import QValuePredictor
from repro.serving.queue import RequestQueue
from repro.serving.result_cache import ResultCache


class Tracer:
    """Collects ``{id, parent, op_id, name, start, end}`` spans in memory.

    The parent of a span is whichever span is open on the same thread;
    spans of one ``label_batch`` call / stream chunk / request share the
    ``op_id`` of the outermost span that caused them.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "op_id": parent["op_id"] if parent else span_id,
            "name": name,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        # Spans close innermost-first on their own thread.
        stack.remove(span)
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def window(self, start: float, end: float) -> list[dict]:
        """Spans that lie inside ``[start, end]``."""
        return [s for s in self.spans if s["start"] >= start and s["end"] <= end]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class TimedPredictor(QValuePredictor):
    """``rl``: one span (with its row count) per Q-forward."""

    def __init__(self, inner: QValuePredictor, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def predict(self, state):
        with self.tracer.span("rl.predict_batch", rows=1):
            return self.inner.predict(state)

    def predict_batch(self, states):
        with self.tracer.span("rl.predict_batch", rows=len(states)):
            return self.inner.predict_batch(states)


class TimedTruth(GroundTruth):
    """``zoo``: spans around ``record_batch`` and ``release_many``.

    On the streaming path the engine brackets every chunk with exactly
    one ``record_batch`` and one ``release_many``; with
    ``stream_chunks=True`` the proxy opens an ``engine.stream_chunk``
    span at the former and closes it after the latter, which is the only
    outside view of a chunk boundary.
    """

    def __init__(self, zoo, items, config, tracer: Tracer, stream_chunks=False):
        super().__init__(zoo, items, config)
        self.tracer = tracer
        self.stream_chunks = stream_chunks
        self._chunk: dict | None = None

    def record_batch(self, items):
        if self.stream_chunks and self.tracer.current() is None:
            self._chunk = self.tracer.open("engine.stream_chunk", items=len(items))
        before = len(self)
        with self.tracer.span("zoo.record_batch") as span:
            records = super().record_batch(items)
            span["items"] = len(self) - before
        return records

    def release_many(self, item_ids):
        with self.tracer.span("zoo.release_many") as span:
            released = super().release_many(item_ids)
            span["items"] = released
        if self._chunk is not None:
            chunk, self._chunk = self._chunk, None
            self.tracer.close(chunk)
        return released


class TimedBackend(ExecutionBackend):
    """``engine`` → ``scheduling`` boundary: one span per ``backend.run``."""

    name = "timed"

    def __init__(self, inner: ExecutionBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def run(self, job, predictor):
        with self.tracer.span(
            "engine.backend_run", regime=job.spec.regime, items=len(job.item_ids)
        ):
            return self.inner.run(job, predictor)

    def close(self) -> None:
        self.inner.close()

    def refresh(self, predictor) -> None:
        self.inner.refresh(predictor)


class TracedEngine(LabelingEngine):
    """``engine``: one root span (a new ``op_id``) per ``label_batch``."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def label_batch(self, items, spec=None, **kwargs):
        with self.tracer.span("engine.label_batch", items=len(items)):
            return super().label_batch(items, spec, **kwargs)


class TimedQueue(RequestQueue):
    """``serving``: spans around admission and batch formation.

    ``pop_batch`` blocks on a condition while it waits for traffic or the
    flush timer; the span also carries the thread's CPU seconds so the
    wait can be told from the work.
    """

    tracer: Tracer

    @classmethod
    def factory(cls, tracer: Tracer):
        def build(**kwargs):
            queue = cls(**kwargs)
            queue.tracer = tracer
            return queue

        return build

    def put(self, request, timeout=None, nowait=False):
        with self.tracer.span("serving.queue_put"):
            return super().put(request, timeout=timeout, nowait=nowait)

    def put_many(self, requests, timeout=None, nowait=False):
        with self.tracer.span("serving.queue_put"):
            return super().put_many(requests, timeout=timeout, nowait=nowait)

    def pop_batch(self, max_items, max_wait):
        cpu = time.thread_time()
        with self.tracer.span("serving.queue_pop_batch") as span:
            popped = super().pop_batch(max_items, max_wait)
            span["cpu"] = time.thread_time() - cpu
        return popped


class TimedCache(ResultCache):
    """``serving``: spans around the single-flight claim and its settle."""

    def __init__(self, capacity: int, tracer: Tracer):
        super().__init__(capacity)
        self.tracer = tracer

    def begin(self, key, future):
        with self.tracer.span("serving.cache_begin"):
            return super().begin(key, future)

    def settle(self, key, result=None, error=None):
        with self.tracer.span("serving.cache_settle"):
            return super().settle(key, result=result, error=error)


class TimedJournal(Journal):
    """``durability``: spans around admission, terminal and flush."""

    def __init__(self, directory, tracer: Tracer, **kwargs):
        self.tracer = tracer
        super().__init__(directory, **kwargs)

    def log_admission(self, item, spec, deadline=None):
        with self.tracer.span("durability.log_admission"):
            return super().log_admission(item, spec, deadline)

    def log_terminal(self, seq, status):
        with self.tracer.span("durability.log_terminal"):
            return super().log_terminal(seq, status)

    def flush(self):
        with self.tracer.span("durability.flush"):
            return super().flush()
