"""The multi-tenant labeling gateway: asyncio HTTP front end.

:class:`LabelingGateway` puts a network edge on a
:class:`~repro.serving.service.LabelingService`: authenticated tenants
POST item references and get label sets back, while the service
underneath micro-batches across all of them.  Per the paper's serving
protocol the gateway labels *recorded* items — clients reference items
by id against the catalog the operator loaded — so request bodies stay
small and results are reproducible.

Endpoints (all JSON unless noted):

========  ======================  ==========================================
method    path                    purpose
========  ======================  ==========================================
POST      ``/v1/label``           label one item, reply when done
POST      ``/v1/label/batch``     label many; ``mode=sync`` waits,
                                  ``mode=job`` returns 202 + job id
GET       ``/v1/jobs/<id>``       poll a job (tenant-scoped)
POST      ``/v1/label/stream``    chunked NDJSON, one line per completion
GET       ``/v1/items``           the labelable catalog (item ids)
GET       ``/metrics``            Prometheus text (unauthenticated)
GET       ``/metrics.json``       same registry as JSON
GET       ``/traces``             recent request traces (``?n=K``)
GET       ``/healthz``            liveness probe
========  ======================  ==========================================

Admission is defense-in-depth, cheapest check first: API key (constant
time, 401), token-bucket rate + in-flight quota (429 with
``Retry-After``), then the service's own bounded queue via the
non-blocking ``submit_many(wait="nowait")`` path, whose futures the
gateway wraps for its loop — so a full queue is an *immediate* 429, never
a blocked event loop.  The three label routes share that front half
(``_submit``; ``/v1/label`` is its one-item case).  Tenant fairness
between admitted requests is the queue's job (pass the roster's weights
with ``LabelingService(queue_factory=...)``); the gateway just stamps
``spec.tenant``, which also partitions the result cache per tenant.

The obs routes are mounted from the same registry/tracer the service
publishes into, so one port serves both traffic and scrape; this is the
only HTTP implementation of them (``serve --metrics-port`` binds a
gateway for exactly these routes).  They are deliberately
unauthenticated (point them at your monitoring network, not the world).

The event loop lives on the gateway's own thread, from
:meth:`LabelingGateway.start_background` to
:meth:`~LabelingGateway.stop_background` (or ``with gateway:``); callers
stay synchronous.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping

from repro.data.datasets import DataItem
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.serving.gateway.auth import Tenant, TenantDirectory
from repro.serving.gateway.jobs import Job, JobStore
from repro.serving.gateway.quota import TenantQuota
from repro.serving.gateway.wire import (
    ChunkedWriter,
    HttpRequest,
    WireError,
    json_body,
    read_request,
    response_bytes,
)
from repro.serving.queue import DeadlineExpired, QueueFull, ServiceStopped
from repro.serving.service import LabelingService
from repro.spec import LabelingSpec

__all__ = ["LabelingGateway"]

logger = logging.getLogger(__name__)

#: Retry hint when the service queue itself rejects (backpressure): the
#: queue drains at micro-batch cadence, so suggest one batch wait.
BACKPRESSURE_RETRY_HINT = 0.05
#: Retained async jobs per tenant; creating one past the cap evicts the
#: oldest *finished* job, or answers 429 if all are running.
MAX_JOBS_PER_TENANT = 64

_SPEC_FIELDS = ("deadline", "memory_budget", "max_models", "priority", "policy")
_LABEL_KEYS = frozenset(("item_id", "admission_deadline", *_SPEC_FIELDS))
_BATCH_KEYS = frozenset(("items", "mode", "admission_deadline", *_SPEC_FIELDS))
_STREAM_KEYS = _BATCH_KEYS - {"mode"}


def _error_status(exc: BaseException) -> tuple[int, str]:
    """(http status, machine reason) for a labeling failure."""
    if isinstance(exc, QueueFull):
        return 429, "backpressure"
    if isinstance(exc, DeadlineExpired):
        return 408, "expired"
    if isinstance(exc, ServiceStopped):
        return 503, "stopped"
    return 500, "failed"


class LabelingGateway:
    """HTTP edge over one labeling service for many authenticated tenants.

    Parameters
    ----------
    service:
        The (started) :class:`LabelingService` to submit into.  Build it
        with ``queue_factory=lambda **kw:
        RequestQueue(tenant_weights=directory.weights(), **kw)`` so the
        queue's tenant stride honours the roster's weights.
    directory:
        The :class:`TenantDirectory` of enrolled tenants.
    catalog:
        The items clients may reference — a mapping of ``item_id`` to
        :class:`DataItem` or any iterable of items.
    registry, tracer:
        Metric registry and trace buffer backing the mounted obs routes;
        default to the ones the service was built with.
    host, port:
        Bind address; ``port=0`` (default) picks an ephemeral port,
        readable as :attr:`port` after start.
    job_dir:
        Optional job-store directory, separate from the service's journal
        (:mod:`~repro.serving.gateway.jobs`).  A gateway started on it
        again keeps answering ``GET /v1/jobs/<id>``, and resubmits the
        unfinished jobs' items before it accepts connections.
    """

    def __init__(
        self,
        service: LabelingService,
        directory: TenantDirectory,
        catalog: Mapping[str, DataItem] | Iterable[DataItem],
        *,
        registry: MetricsRegistry | None = None,
        tracer: TraceBuffer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        job_dir: str | Path | None = None,
    ):
        self.service = service
        self.directory = directory
        if isinstance(catalog, Mapping):
            self.catalog: dict[str, DataItem] = dict(catalog)
        else:
            self.catalog = {item.item_id: item for item in catalog}
        if not self.catalog:
            raise ValueError("the gateway needs a non-empty item catalog")
        self.registry = registry if registry is not None else service.registry
        self.tracer = tracer if tracer is not None else service.tracer
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._quotas = {t.name: TenantQuota(t) for t in directory}
        self._jobs = JobStore(job_dir, MAX_JOBS_PER_TENANT)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        #: Live connection handlers, cancelled when the gateway stops.
        self._connections: set[asyncio.Task] = set()

        self._requests = self.registry.counter(
            "repro_gateway_requests_total",
            "Gateway requests by tenant, endpoint, and HTTP status",
            labelnames=("tenant", "endpoint", "status"),
        )
        self._admitted = self.registry.counter(
            "repro_gateway_admitted_total",
            "Items admitted into the service per tenant",
            labelnames=("tenant",),
        )
        self._rejected = self.registry.counter(
            "repro_gateway_rejected_total",
            "Requests refused before service admission, by reason",
            labelnames=("tenant", "reason"),
        )
        self._inflight_gauge = self.registry.gauge(
            "repro_gateway_inflight",
            "Admitted-but-unresolved items per tenant",
            labelnames=("tenant",),
        )
        self._e2e = self.registry.histogram(
            "repro_gateway_e2e_seconds",
            "Gateway-observed submit-to-reply latency per tenant",
            labelnames=("tenant",),
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        assert self.port is not None, "gateway not started"
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> "LabelingGateway":
        """Resume restored unfinished jobs, bind, and serve on a dedicated
        event-loop thread until :meth:`stop_background` (``with gateway:``
        does both).  A failure to resume or bind is raised here."""
        if self._thread is not None:
            raise RuntimeError("gateway already running in background")
        bound = threading.Event()
        failure: list[BaseException] = []
        self._thread = threading.Thread(
            target=asyncio.run,
            args=(self._serve(bound, failure),),
            name="labeling-gateway",
            daemon=True,
        )
        self._thread.start()
        bound.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self

    def stop_background(self, timeout: float = 5.0) -> None:
        """Stop accepting, close every live connection, end the loop."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "LabelingGateway":
        return self.start_background()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_background()

    async def _serve(self, bound: threading.Event, failure: list) -> None:
        """The loop thread's whole life: resume jobs, bind, serve until
        stopped, then unbind and cancel the connection handlers (their
        ``finally`` closes each writer) before the loop ends."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            for job in self._jobs.restore(self.catalog, self._quotas):
                # Outside the tenant's quota, and wait="block" off the
                # loop: acknowledged work waits for queue space (as
                # recover()'s backlog does) instead of taking QueueFull.
                items = [self.catalog[item_id] for item_id in job.item_ids]
                job.cached = [self._was_cached(i, job.spec) for i in job.item_ids]
                futures = await asyncio.to_thread(
                    self.service.submit_many, items, job.spec, wait="block"
                )
                job.futures = [asyncio.wrap_future(future) for future in futures]
                self._watch(job)
            server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )
            self.port = server.sockets[0].getsockname()[1]
        except BaseException as exc:  # noqa: BLE001 — surfaced to the caller
            failure.append(exc)
            return
        finally:
            bound.set()
        logger.info("gateway listening on %s", self.url)
        await self._stopping.wait()
        server.close()
        for task in self._connections:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await server.wait_closed()

    # -- connection / routing ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except WireError as exc:
                    writer.write(
                        response_bytes(
                            exc.status,
                            json_body({"error": exc.message}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
            asyncio.CancelledError,  # the gateway is stopping
        ):
            pass
        except Exception:  # noqa: BLE001 — one connection must not kill accept
            logger.exception("gateway connection handler failed")
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        path, method = request.path, request.method
        tenant_label = "-"
        status = 500
        try:
            obs = self._obs_route(path, method, request)
            if obs is not None:
                status, body, content_type = obs
                writer.write(
                    response_bytes(status, body, content_type=content_type)
                )
                await writer.drain()
                return request.keep_alive

            tenant = self._authenticate(request)
            tenant_label = tenant.name

            if path == "/v1/label/stream" and method == "POST":
                status = await self._handle_stream(request, tenant, writer)
                return request.keep_alive and status == 200

            handler = None
            if path == "/v1/label" and method == "POST":
                handler = self._handle_label
            elif path == "/v1/label/batch" and method == "POST":
                handler = self._handle_batch
            elif path == "/v1/items" and method == "GET":
                handler = self._handle_items
            elif path.startswith("/v1/jobs/") and method == "GET":
                handler = self._handle_job
            elif path in ("/v1/label", "/v1/label/batch", "/v1/label/stream"):
                raise WireError(405, f"{path} expects POST")
            elif path.startswith("/v1/jobs/"):
                raise WireError(405, "jobs are polled with GET")
            if handler is None:
                raise WireError(404, f"no route for {method} {path}")

            status, payload, extra = await handler(request, tenant)
            writer.write(
                response_bytes(status, json_body(payload), extra_headers=extra)
            )
            await writer.drain()
            return request.keep_alive
        except WireError as exc:
            status = exc.status
            payload: dict = {"error": exc.message}
            extra = None
            if isinstance(exc, _QuotaExceeded):
                payload["reason"] = exc.reason
                payload["retry_after"] = round(exc.retry_after, 4)
                extra = {"Retry-After": _retry_after_header(exc.retry_after)}
            elif status == 401:
                extra = {"WWW-Authenticate": "Bearer"}
            writer.write(
                response_bytes(status, json_body(payload), extra_headers=extra)
            )
            await writer.drain()
            return request.keep_alive
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 — answer 500, keep serving
            logger.exception("handler failed for %s %s", method, path)
            status = 500
            with contextlib.suppress(Exception):
                writer.write(
                    response_bytes(
                        500, json_body({"error": f"internal error: {exc}"})
                    )
                )
                await writer.drain()
            return False
        finally:
            self._requests.labels(
                tenant=tenant_label,
                endpoint=self._endpoint_label(path),
                status=str(status),
            ).inc()

    @staticmethod
    def _endpoint_label(path: str) -> str:
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs"
        return path

    def _obs_route(
        self, path: str, method: str, request: HttpRequest
    ) -> tuple[int, bytes | str, str] | None:
        """The mounted observability surface (no auth)."""
        if method != "GET" or path not in (
            "/",
            "/healthz",
            "/metrics",
            "/metrics.json",
            "/traces",
        ):
            return None
        if path in ("/", "/healthz"):
            return 200, "ok\n", "text/plain; charset=utf-8"
        if path == "/metrics":
            return (
                200,
                self.registry.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/metrics.json":
            return 200, self.registry.render_json(), "application/json"
        if self.tracer is None:
            return (
                404,
                json_body({"error": "tracing is not enabled"}),
                "application/json",
            )
        n = None
        if "n" in request.query:
            try:
                n = max(1, int(request.query["n"][0]))
            except ValueError as exc:
                raise WireError(400, "traces ?n= must be an integer") from exc
        return 200, self.tracer.to_json(n), "application/json"

    # -- auth / admission ----------------------------------------------------

    def _authenticate(self, request: HttpRequest) -> Tenant:
        presented = request.header("x-api-key")
        if presented is None:
            authorization = request.header("authorization", "")
            scheme, _, credential = authorization.partition(" ")
            if scheme.lower() == "bearer":
                presented = credential.strip()
        tenant = self.directory.authenticate(presented)
        if tenant is None:
            raise WireError(401, "missing or unrecognized API key")
        return tenant

    def _admit(self, tenant: Tenant, n: int) -> None:
        """Quota-admit ``n`` items or raise :class:`_QuotaExceeded` (429)."""
        denied = self._quotas[tenant.name].admit(n)
        if denied is not None:
            self._rejected.labels(tenant=tenant.name, reason=denied.reason).inc()
            raise _QuotaExceeded(denied.reason, denied.retry_after)
        self._inflight_gauge.labels(tenant=tenant.name).inc(n)

    def _release(self, tenant_name: str, n: int = 1) -> None:
        self._quotas[tenant_name].release(n)
        self._inflight_gauge.labels(tenant=tenant_name).dec(n)

    def _track(self, tenant: Tenant, future: asyncio.Future) -> asyncio.Future:
        """Release one quota slot when ``future`` resolves, however."""

        def on_done(f: asyncio.Future) -> None:
            self._release(tenant.name)
            # Retrieve so never-awaited job failures don't warn at GC.
            if not f.cancelled():
                f.exception()

        future.add_done_callback(on_done)
        return future

    # -- request parsing -----------------------------------------------------

    def _lookup_item(self, item_id) -> DataItem:
        if not isinstance(item_id, str) or not item_id:
            raise WireError(400, "item_id must be a non-empty string")
        item = self.catalog.get(item_id)
        if item is None:
            raise WireError(404, f"unknown item_id {item_id!r}")
        return item

    def _build_spec(self, body: dict, tenant: Tenant) -> LabelingSpec:
        # JSON null reads as "field absent", like a missing key.
        fields = {
            name: body[name] for name in _SPEC_FIELDS if body.get(name) is not None
        }
        try:
            return LabelingSpec(tenant=tenant.name, **fields)
        except (TypeError, ValueError) as exc:
            raise WireError(400, f"invalid labeling spec: {exc}") from exc

    @staticmethod
    def _check_keys(body: dict, allowed: frozenset) -> None:
        extra = set(body) - allowed
        if extra:
            raise WireError(
                400,
                f"unknown request fields {sorted(extra)} "
                f"(expected a subset of {sorted(allowed)})",
            )

    @staticmethod
    def _admission_deadline(body: dict) -> float | None:
        deadline = body.get("admission_deadline")
        if deadline is None:
            return None
        if (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not 0 < deadline <= sys.float_info.max  # also rejects NaN
        ):
            raise WireError(400, "admission_deadline must be a positive number")
        return float(deadline)

    def _was_cached(self, item_id: str, spec: LabelingSpec) -> bool:
        cache = self.service.cache
        return cache is not None and spec.cache_key(item_id) in cache

    @staticmethod
    def _encode_result(result, cached: bool) -> dict:
        return {
            "item_id": result.item_id,
            "status": "completed",
            "labels": [
                {"name": label.name, "confidence": round(label.confidence, 6)}
                for label in result.labels
            ],
            "models_executed": result.models_executed,
            "time_used": round(result.time_used, 6),
            "recall": None if result.recall is None else round(result.recall, 6),
            "cached": cached,
        }

    @staticmethod
    def _encode_failure(item_id: str, exc: BaseException) -> dict:
        _, reason = _error_status(exc)
        return {"item_id": item_id, "status": reason, "error": str(exc)}

    # -- handlers ------------------------------------------------------------

    def _submit(self, body: dict, tenant: Tenant, allowed: frozenset):
        """The front half every label route shares: check keys → item ids
        (``item_id`` on ``/v1/label``, the ``items`` list elsewhere) →
        ``mode`` → catalog lookup → spec → admission deadline → quota →
        cached flags → one non-blocking bulk submission whose every future
        releases its quota slot however it settles.  Returns ``(items,
        spec, futures, cached, started)``.
        """
        self._check_keys(body, allowed)
        if "items" in allowed:
            raw_items = body.get("items")
            if not isinstance(raw_items, list) or not raw_items:
                raise WireError(400, "items must be a non-empty list of item ids")
        else:
            raw_items = [body.get("item_id")]
        if body.get("mode", "sync") not in ("sync", "job"):
            raise WireError(400, 'mode must be "sync" or "job"')
        items = [self._lookup_item(item_id) for item_id in raw_items]
        spec = self._build_spec(body, tenant)
        deadline = self._admission_deadline(body)
        started = time.monotonic()
        self._admit(tenant, len(items))
        cached = [self._was_cached(item.item_id, spec) for item in items]
        try:
            futures = self.service.submit_many(
                items, spec, deadline=deadline, wait="nowait"
            )
        except ServiceStopped:
            self._release(tenant.name, len(items))
            raise
        futures = [self._track(tenant, asyncio.wrap_future(f)) for f in futures]
        # "Admitted" here means past the gateway's quota gate; per-item
        # service-level rejections (queue full, expired) still surface on
        # the futures and in repro_requests_total{outcome=...}.
        self._admitted.labels(tenant=tenant.name).inc(len(futures))
        return items, spec, futures, cached, started

    async def _handle_label(self, request: HttpRequest, tenant: Tenant):
        try:
            _, _, (future,), (cached,), started = self._submit(
                request.json(), tenant, _LABEL_KEYS
            )
            result = await future
        except (QueueFull, DeadlineExpired, ServiceStopped) as exc:
            status, reason = _error_status(exc)
            self._rejected.labels(tenant=tenant.name, reason=reason).inc()
            extra = (
                {"Retry-After": _retry_after_header(BACKPRESSURE_RETRY_HINT)}
                if status == 429
                else None
            )
            return status, {"error": str(exc), "reason": reason}, extra
        self._e2e.labels(tenant=tenant.name).observe(time.monotonic() - started)
        return 200, self._encode_result(result, cached), None

    async def _handle_batch(self, request: HttpRequest, tenant: Tenant):
        body = request.json()
        items, spec, futures, cached, started = self._submit(body, tenant, _BATCH_KEYS)

        if body.get("mode") == "job":
            job = self._jobs.create(
                spec, [item.item_id for item in items], futures, cached
            )
            if job is None:
                for future in futures:
                    future.cancel()
                self._rejected.labels(tenant=tenant.name, reason="jobs").inc()
                raise _QuotaExceeded("jobs", 1.0)
            self._watch(job)
            return (
                202,
                {"job_id": job.job_id, "total": len(items), "status": "running"},
                None,
            )

        await asyncio.gather(*futures, return_exceptions=True)
        results = self._rows([item.item_id for item in items], futures, cached)
        completed = sum(1 for r in results if r["status"] == "completed")
        self._e2e.labels(tenant=tenant.name).observe(time.monotonic() - started)
        return (
            200,
            {"total": len(results), "completed": completed, "results": results},
            None,
        )

    def _rows(self, item_ids, futures, cached) -> list[dict]:
        """One row per item from its future's state: the body of a sync
        batch, a running job's poll, and a finished job's stored rows."""
        rows = []
        for item_id, future, was_cached in zip(item_ids, futures, cached):
            if not future.done():
                rows.append({"item_id": item_id, "status": "pending"})
            elif future.cancelled():
                rows.append(
                    {"item_id": item_id, "status": "cancelled", "error": "cancelled"}
                )
            elif future.exception() is not None:
                rows.append(self._encode_failure(item_id, future.exception()))
            else:
                rows.append(self._encode_result(future.result(), was_cached))
        return rows

    def _watch(self, job: Job) -> None:
        """Store the job's rows once its last item settles."""
        settled = asyncio.gather(*job.futures, return_exceptions=True)
        settled.add_done_callback(
            lambda _: self._jobs.finish(
                job, self._rows(job.item_ids, job.futures, job.cached)
            )
        )

    async def _handle_items(self, request: HttpRequest, tenant: Tenant):
        """The labelable catalog — lets load generators discover ids."""
        return 200, {"items": sorted(self.catalog)}, None

    async def _handle_job(self, request: HttpRequest, tenant: Tenant):
        job_id = request.path.rsplit("/", 1)[-1]
        job = self._jobs.get(job_id)
        if job is None or job.spec.tenant != tenant.name:
            # Same answer for "no such job" and "not yours": ids are
            # unguessable, and existence must not leak across tenants.
            raise WireError(404, f"unknown job {job_id!r}")
        total = len(job.item_ids)
        done = total if job.results else sum(1 for f in job.futures if f.done())
        results = job.results or self._rows(job.item_ids, job.futures, job.cached)
        return (
            200,
            {
                "job_id": job.job_id,
                "status": "done" if done == total else "running",
                "done": done,
                "total": total,
                "results": results,
            },
            None,
        )

    async def _handle_stream(
        self, request: HttpRequest, tenant: Tenant, writer: asyncio.StreamWriter
    ) -> int:
        """Chunked NDJSON: one line per completed item, completion order."""
        items, _, futures, cached, started = self._submit(
            request.json(), tenant, _STREAM_KEYS
        )

        async def settle(item: DataItem, future: asyncio.Future, was_cached):
            try:
                return self._encode_result(await future, was_cached)
            except Exception as exc:  # noqa: BLE001 — per-item status line
                return self._encode_failure(item.item_id, exc)

        # Once chunked headers are on the wire a fixed error response
        # would corrupt the stream, so failures past this point become a
        # terminal NDJSON line and a closed connection instead.
        stream = ChunkedWriter(writer)
        await stream.start()
        completed = 0
        try:
            for settled in asyncio.as_completed(
                [settle(*args) for args in zip(items, futures, cached)]
            ):
                line = await settled
                if line["status"] == "completed":
                    completed += 1
                await stream.send_json_line(line)
            self._e2e.labels(tenant=tenant.name).observe(
                time.monotonic() - started
            )
            await stream.send_json_line(
                {"status": "end", "total": len(items), "completed": completed}
            )
            await stream.finish()
        except (ConnectionResetError, BrokenPipeError):
            return 499
        except Exception as exc:  # noqa: BLE001 — stream already started
            logger.exception("stream handler failed mid-flight")
            with contextlib.suppress(Exception):
                await stream.send_json_line(
                    {"status": "error", "error": str(exc)}
                )
                await stream.finish()
            return 500
        return 200

    # -- introspection -------------------------------------------------------

    def tenant_inflight(self) -> dict[str, int]:
        """Live in-flight count per tenant (quota accounting view)."""
        return {name: quota.inflight for name, quota in self._quotas.items()}


class _QuotaExceeded(WireError):
    """429 with machine-readable reason and Retry-After (see _dispatch)."""

    def __init__(self, reason: str, retry_after: float):
        super().__init__(429, f"quota exceeded ({reason})")
        self.reason = reason
        self.retry_after = retry_after


def _retry_after_header(seconds: float) -> str:
    """HTTP Retry-After is integral seconds; never advertise zero."""
    return str(max(1, int(seconds + 0.999)))
