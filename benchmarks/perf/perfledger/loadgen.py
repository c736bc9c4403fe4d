"""Load generators: open and closed loops over a service, HTTP clients.

All load comes from this one process with at most ``nproc`` threads or
connections.  Each generator reports its own health (``lag`` = how late
an open-loop send ran, ``cpu`` = generator CPU seconds) so a result
distorted by the generator can be told from one that is not.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class LoopResult:
    """What one timed window over a service produced."""

    wall: float
    #: (submission index, LabelingResult) of every completed request.
    results: list = field(default_factory=list)
    #: Submission index -> seconds from due time (open loop) or submit
    #: (closed loop) to done, for every completed request.
    latencies: dict = field(default_factory=dict)
    #: Requests refused at submit or failed afterwards.
    failed: int = 0
    #: Open loop only: seconds each send ran behind its due time.
    lags: list = field(default_factory=list)
    #: Generator-thread CPU seconds.
    cpu: float = 0.0
    started: float = 0.0
    ended: float = 0.0


def open_loop(service, requests, due_times, submit=None) -> LoopResult:
    """Send ``requests[i]`` at ``due_times[i]`` regardless of completions.

    Latency is measured from the due time, so a stall charges the
    requests queued behind it.  ``submit(item, spec)`` defaults to the
    service's non-blocking admission.
    """
    submit = submit or (lambda item, spec: service.submit(item, spec, wait="nowait"))
    out = LoopResult(wall=0.0)
    lock = threading.Lock()
    done = threading.Event()
    outstanding = [len(requests)]

    def settle(index, due, future=None):
        finished = time.perf_counter()
        error = future.exception() if future is not None else True
        with lock:
            if error is None:
                out.results.append((index, future.result()))
                out.latencies[index] = finished - due
            else:
                out.failed += 1
            outstanding[0] -= 1
            if outstanding[0] == 0:
                done.set()

    cpu = time.thread_time()
    out.started = origin = time.perf_counter()
    for index, ((item, spec), offset) in enumerate(zip(requests, due_times)):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        out.lags.append(max(0.0, time.perf_counter() - due))
        try:
            future = submit(item, spec)
        except Exception:  # noqa: BLE001 — a refusal is a failed request
            settle(index, due)
            continue
        future.add_done_callback(
            lambda f, index=index, due=due: settle(index, due, f)
        )
    out.cpu = time.thread_time() - cpu
    if requests:
        done.wait()
    out.ended = time.perf_counter()
    out.wall = out.ended - out.started
    return out


def closed_loop(service, requests, outstanding: int, submit=None) -> LoopResult:
    """Keep ``outstanding`` requests in flight until all are done."""
    submit = submit or (lambda item, spec: service.submit(item, spec, wait="nowait"))
    out = LoopResult(wall=0.0)
    lock = threading.Lock()
    slots = threading.Semaphore(outstanding)

    def settle(index, sent, future):
        finished = time.perf_counter()
        error = future.exception()
        with lock:
            if error is None:
                out.results.append((index, future.result()))
                out.latencies[index] = finished - sent
            else:
                out.failed += 1
        slots.release()

    cpu = time.thread_time()
    out.started = time.perf_counter()
    for index, (item, spec) in enumerate(requests):
        slots.acquire()
        sent = time.perf_counter()
        try:
            future = submit(item, spec)
        except Exception:  # noqa: BLE001 — a refusal is a failed request
            with lock:
                out.failed += 1
            slots.release()
            continue
        future.add_done_callback(
            lambda f, index=index, sent=sent: settle(index, sent, f)
        )
    out.cpu = time.thread_time() - cpu
    for _ in range(outstanding):  # every slot back = every request settled
        slots.acquire()
    out.ended = time.perf_counter()
    out.wall = out.ended - out.started
    return out


# -- HTTP --------------------------------------------------------------------


@dataclass
class HttpReply:
    status: int
    #: Parsed JSON body; for a stream, the list of NDJSON lines.
    body: object
    seconds: float
    #: Streams only: seconds to the first NDJSON line.
    first_line: float | None = None


class GatewayConnection:
    """One keep-alive connection speaking the gateway's JSON routes."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def call(self, method: str, path: str, body=None, api_key=None) -> HttpReply:
        headers = {"Connection": "keep-alive"}
        payload = None
        if body is not None:
            payload = json.dumps(body, separators=(",", ":")).encode()
            headers["Content-Type"] = "application/json"
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        started = time.perf_counter()
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        if path.endswith("/stream") and response.status == 200:
            lines, first = [], None
            while True:
                raw = response.readline()
                if not raw:
                    break
                if first is None:
                    first = time.perf_counter() - started
                lines.append(json.loads(raw))
            return HttpReply(200, lines, time.perf_counter() - started, first)
        raw = response.read()
        seconds = time.perf_counter() - started
        return HttpReply(response.status, json.loads(raw), seconds)
