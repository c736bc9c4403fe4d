"""The multi-tenant gateway: auth, quotas, endpoints, isolation, metrics.

Unit layers (tenants, token buckets) are tested directly; the HTTP
surface is tested against a *live* background gateway over a real
service with a tenant-weighted queue — requests go through the full
wire -> auth -> quota -> nowait-submit -> dispatch path.
"""

import http.client
import json
import threading
import time

import pytest

from repro.engine import LabelingEngine
from repro.obs import MetricsRegistry, TraceBuffer
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService, LabelingSpec, RequestQueue
from repro.serving.gateway import (
    LabelingGateway,
    Tenant,
    TenantDirectory,
    TenantQuota,
    TokenBucket,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- unit: tenants and auth --------------------------------------------------


class TestTenantDirectory:
    def test_authenticate_right_wrong_and_missing(self):
        directory = TenantDirectory(
            [Tenant("a", "key-a"), Tenant("b", "key-b")]
        )
        assert directory.authenticate("key-a").name == "a"
        assert directory.authenticate("key-b").name == "b"
        assert directory.authenticate("key-c") is None
        assert directory.authenticate("") is None
        assert directory.authenticate(None) is None

    def test_rejects_duplicate_names_and_keys(self):
        with pytest.raises(ValueError, match="unique"):
            TenantDirectory([Tenant("a", "k1"), Tenant("a", "k2")])
        with pytest.raises(ValueError, match="unique"):
            TenantDirectory([Tenant("a", "k"), Tenant("b", "k")])
        with pytest.raises(ValueError, match="at least one"):
            TenantDirectory([])

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Tenant("", "key")
        with pytest.raises(ValueError):
            Tenant("a", "")
        with pytest.raises(ValueError):
            Tenant("a", "k", weight=0.0)
        with pytest.raises(ValueError):
            Tenant("a", "k", burst=0)
        with pytest.raises(ValueError):
            Tenant("a", "k", max_inflight=0)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weight_is_rejected(self, weight):
        # json.loads accepts NaN and Infinity, so a tenants file can carry
        # them; either weight would let one tenant monopolise dispatch.
        config = '{"tenants": [{"name": "hot", "api_key": "k", "weight": %s}]}'
        with pytest.raises(ValueError, match="finite"):
            TenantDirectory.from_json(json.loads(config % weight))

    def test_nan_rate_is_rejected_and_inf_rate_is_unlimited(self):
        with pytest.raises(ValueError, match="rate"):
            Tenant("a", "k", rate=float("nan"))
        assert Tenant("a", "k", rate=float("inf")).rate == float("inf")

    def test_from_json_file_and_env(self, tmp_path, monkeypatch):
        config = {
            "tenants": [
                {"name": "acme", "api_key": "s3cret", "weight": 4.0,
                 "rate": 100.0, "burst": 10, "max_inflight": 32},
                {"name": "free", "api_key": "hunter2"},
            ]
        }
        directory = TenantDirectory.from_json(config)
        acme = directory.get("acme")
        assert (acme.weight, acme.rate, acme.burst, acme.max_inflight) == (
            4.0, 100.0, 10, 32,
        )
        assert directory.get("free").rate == float("inf")
        assert directory.weights() == {"acme": 4.0, "free": 1.0}

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(config))
        assert TenantDirectory.from_file(str(path)).get("acme").weight == 4.0

        monkeypatch.setenv("REPRO_GATEWAY_TENANTS", json.dumps(config))
        assert len(TenantDirectory.from_env()) == 2
        monkeypatch.delenv("REPRO_GATEWAY_TENANTS")
        with pytest.raises(ValueError, match="unset"):
            TenantDirectory.from_env()

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown tenant config"):
            Tenant.from_dict({"name": "a", "api_key": "k", "quota": 5})

    def test_demo_roster_is_deterministic(self):
        one, two = TenantDirectory.demo(3), TenantDirectory.demo(3)
        assert [t.api_key for t in one] == [t.api_key for t in two]
        assert one.authenticate("demo-key-tenant-1").name == "tenant-1"


# -- unit: quotas ------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_rate_limited_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.1)
        clock.advance(0.1)
        assert bucket.try_acquire() == 0.0

    def test_denial_spends_nothing(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire() == 0.0
        first = bucket.try_acquire()
        clock.advance(0.0)
        second = bucket.try_acquire()
        assert second == pytest.approx(first)  # no punishment spiral

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=5, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 5.0


class TestTenantQuota:
    def test_inflight_cap_and_release(self):
        quota = TenantQuota(Tenant("a", "k", max_inflight=2), FakeClock())
        assert quota.admit() is None
        assert quota.admit() is None
        denied = quota.admit()
        assert denied.reason == "inflight" and denied.retry_after > 0
        quota.release()
        assert quota.admit() is None
        assert quota.inflight == 2

    def test_rate_denial_reports_retry_after(self):
        clock = FakeClock()
        quota = TenantQuota(Tenant("a", "k", rate=5.0, burst=1), clock)
        assert quota.admit() is None
        denied = quota.admit()
        assert denied.reason == "rate_limit"
        assert denied.retry_after == pytest.approx(0.2)
        assert quota.inflight == 1  # denial admitted nothing

    def test_bulk_admit_is_all_or_nothing(self):
        quota = TenantQuota(Tenant("a", "k", max_inflight=3), FakeClock())
        assert quota.admit(3) is None
        assert quota.admit(1).reason == "inflight"
        assert quota.inflight == 3


# -- live gateway ------------------------------------------------------------


DIRECTORY = TenantDirectory(
    [
        Tenant("alpha", "key-alpha", weight=2.0),
        Tenant("beta", "key-beta"),
        # 2 requests then ~1/s: the 429 fixture tenant
        Tenant("throttled", "key-throttled", rate=1.0, burst=2),
        # one concurrent request at a time: the inflight-cap tenant
        Tenant("narrow", "key-narrow", max_inflight=1),
    ]
)


@pytest.fixture(scope="module")
def engine(zoo, space, world_config):
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), world_config)


@pytest.fixture(scope="module")
def gateway(engine, truth, dataset):
    registry = MetricsRegistry()
    service = LabelingService(
        engine,
        truth=truth,
        spec=LabelingSpec(deadline=0.35),
        batch_size=8,
        max_wait=0.005,
        cache_size=256,
        registry=registry,
        tracer=TraceBuffer(128),
        queue_factory=lambda **kw: RequestQueue(
            tenant_weights=DIRECTORY.weights(), **kw
        ),
    )
    service.start()
    gw = LabelingGateway(service, DIRECTORY, dataset).start_background()
    yield gw
    gw.stop_background()
    service.shutdown()


@pytest.fixture(scope="module")
def item_ids(dataset):
    return [item.item_id for item in dataset][:20]


def call(gateway, method, path, body=None, key="key-alpha", headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        all_headers = dict(headers or {})
        if key is not None and "X-API-Key" not in all_headers:
            all_headers["Authorization"] = f"Bearer {key}"
        payload = None
        if body is not None:
            payload = json.dumps(body)
            all_headers["Content-Type"] = "application/json"
        conn.request(method, path, payload, all_headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw and raw.lstrip()[:1] in (b"{", b"[") else raw
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


class TestAuth:
    def test_missing_and_wrong_key_are_401(self, gateway, item_ids):
        status, headers, body = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[0]}, key=None
        )
        assert status == 401
        assert headers.get("WWW-Authenticate") == "Bearer"
        status, _, _ = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[0]}, key="nope"
        )
        assert status == 401

    def test_x_api_key_header_works_too(self, gateway, item_ids):
        status, _, body = call(
            gateway,
            "POST",
            "/v1/label",
            {"item_id": item_ids[1]},
            key=None,
            headers={"X-API-Key": "key-beta"},
        )
        assert status == 200 and body["status"] == "completed"


class TestLabelEndpoints:
    def test_label_roundtrip_and_cache_flag(self, gateway, item_ids):
        status, _, first = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[2]}
        )
        assert status == 200
        assert first["item_id"] == item_ids[2]
        assert first["cached"] is False
        assert first["labels"] and all(
            set(label) == {"name", "confidence"} for label in first["labels"]
        )
        assert first["models_executed"]
        status, _, second = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[2]}
        )
        assert status == 200 and second["cached"] is True
        assert second["labels"] == first["labels"]

    def test_cache_is_tenant_partitioned(self, gateway, item_ids):
        # The cross-tenant isolation regression: alpha's cached result
        # must not leak to beta — beta's first request recomputes.
        call(gateway, "POST", "/v1/label", {"item_id": item_ids[3]})
        status, _, repeat = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[3]}
        )
        assert status == 200 and repeat["cached"] is True
        status, _, other = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[3]}, key="key-beta"
        )
        assert status == 200 and other["cached"] is False

    def test_spec_fields_flow_through(self, gateway, item_ids):
        status, _, body = call(
            gateway,
            "POST",
            "/v1/label",
            {"item_id": item_ids[4], "deadline": 0.5, "priority": 2},
        )
        assert status == 200 and body["status"] == "completed"

    def test_batch_sync_returns_all_items(self, gateway, item_ids):
        status, _, body = call(
            gateway, "POST", "/v1/label/batch", {"items": item_ids[5:9]}
        )
        assert status == 200
        assert body["total"] == 4 and body["completed"] == 4
        assert [r["item_id"] for r in body["results"]] == item_ids[5:9]

    def test_job_mode_polls_to_done_and_is_tenant_scoped(
        self, gateway, item_ids
    ):
        status, _, body = call(
            gateway,
            "POST",
            "/v1/label/batch",
            {"items": item_ids[9:12], "mode": "job"},
        )
        assert status == 202 and body["total"] == 3
        job_id = body["job_id"]
        deadline = time.time() + 30
        while True:
            status, _, poll = call(gateway, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if poll["status"] == "done":
                break
            assert time.time() < deadline, "job never finished"
            time.sleep(0.02)
        assert poll["done"] == 3
        assert all(r["status"] == "completed" for r in poll["results"])
        # another tenant cannot see the job, and unknown ids 404
        status, _, _ = call(gateway, "GET", f"/v1/jobs/{job_id}", key="key-beta")
        assert status == 404
        status, _, _ = call(gateway, "GET", "/v1/jobs/doesnotexist")
        assert status == 404

    def test_stream_emits_ndjson_per_item_plus_summary(self, gateway, item_ids):
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/label/stream",
                json.dumps({"items": item_ids[12:16]}),
                {
                    "Authorization": "Bearer key-alpha",
                    "Content-Type": "application/json",
                },
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            lines = [
                json.loads(line)
                for line in response.read().decode().strip().split("\n")
            ]
        finally:
            conn.close()
        assert len(lines) == 5
        assert {line["item_id"] for line in lines[:-1]} == set(item_ids[12:16])
        assert lines[-1] == {"status": "end", "total": 4, "completed": 4}

    def test_items_endpoint_lists_catalog(self, gateway, dataset):
        status, _, body = call(gateway, "GET", "/v1/items")
        assert status == 200
        assert body["items"] == sorted(item.item_id for item in dataset)


class TestValidation:
    def test_unknown_item_is_404(self, gateway):
        status, _, body = call(
            gateway, "POST", "/v1/label", {"item_id": "no/such/item"}
        )
        assert status == 404 and "unknown item_id" in body["error"]

    def test_unknown_fields_and_bad_spec_are_400(self, gateway, item_ids):
        status, _, body = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[0], "bogus": 1}
        )
        assert status == 400 and "unknown request fields" in body["error"]
        status, _, body = call(
            gateway,
            "POST",
            "/v1/label",
            {"item_id": item_ids[0], "memory_budget": 100.0},
        )
        assert status == 400 and "invalid labeling spec" in body["error"]
        status, _, body = call(
            gateway, "POST", "/v1/label/batch", {"items": []}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "field",
        [
            {"priority": "high"},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"deadline": True},
            {"max_models": 2.5},
            {"admission_deadline": float("nan")},
            {"admission_deadline": True},
        ],
        ids=lambda field: "-".join(f"{k}={v}" for k, v in field.items()),
    )
    def test_bad_typed_spec_field_is_400_and_dispatch_survives(
        self, gateway, item_ids, field
    ):
        # json.loads accepts NaN/Infinity and any JSON type in any field; a
        # string priority used to be admitted and kill the dispatcher thread
        # for every tenant.
        for path, body in (
            ("/v1/label", {"item_id": item_ids[5]}),
            ("/v1/label/batch", {"items": item_ids[5:7]}),
            ("/v1/label/stream", {"items": item_ids[5:7]}),
        ):
            status, _, reply = call(gateway, "POST", path, {**body, **field})
            assert status == 400, (path, reply)
        status, _, reply = call(
            gateway, "POST", "/v1/label", {"item_id": item_ids[6]}, key="key-beta"
        )
        assert status == 200 and reply["status"] == "completed"
        assert gateway.service._dispatcher.is_alive()

    def test_malformed_json_is_400(self, gateway):
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/label",
                "{not json",
                {"Authorization": "Bearer key-alpha"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_wrong_method_is_405_and_unknown_route_404(self, gateway):
        status, _, _ = call(gateway, "GET", "/v1/label")
        assert status == 405
        status, _, _ = call(gateway, "POST", "/v1/nothing", {})
        assert status == 404


class TestQuotas:
    def test_rate_limit_bursts_get_429_with_retry_after(self, gateway, item_ids):
        # burst=2, rate=1/s: a 10-wide concurrent burst must admit at
        # most the bucket's capacity and 429 the rest, every denial
        # carrying Retry-After.
        results = []
        lock = threading.Lock()

        def one(index):
            status, headers, body = call(
                gateway,
                "POST",
                "/v1/label",
                {"item_id": item_ids[index % len(item_ids)]},
                key="key-throttled",
            )
            with lock:
                results.append((status, headers, body))

        threads = [threading.Thread(target=one, args=(i,)) for i in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        granted = [r for r in results if r[0] == 200]
        denied = [r for r in results if r[0] == 429]
        assert len(granted) <= 2
        assert len(granted) + len(denied) == 10
        for _, headers, body in denied:
            assert int(headers["Retry-After"]) >= 1
            assert body["reason"] == "rate_limit"
            assert body["retry_after"] > 0

    def test_inflight_cap_excess_concurrency_gets_429(self, gateway, item_ids):
        # max_inflight=1: of N truly concurrent label calls, the denied
        # ones report the inflight reason; afterwards the slot frees.
        barrier = threading.Barrier(4)
        results = []
        lock = threading.Lock()

        def one(index):
            barrier.wait()
            status, _, body = call(
                gateway,
                "POST",
                "/v1/label",
                {"item_id": item_ids[16 + index % 4]},
                key="key-narrow",
            )
            with lock:
                results.append((status, body))

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = sorted(s for s, _ in results)
        assert statuses.count(200) >= 1
        for status, body in results:
            if status == 429:
                assert body["reason"] == "inflight"
        # the cap is a concurrency limit, not a lockout: a lone request
        # after the burst succeeds
        status, _, _ = call(
            gateway,
            "POST",
            "/v1/label",
            {"item_id": item_ids[17]},
            key="key-narrow",
        )
        assert status == 200


class TestBackpressure:
    def test_full_queue_answers_429_not_a_blocked_loop(
        self, engine, truth, dataset
    ):
        # An *unstarted* service never drains its queue: with max_depth=2
        # under the blocking overflow policy, a synchronous submit would
        # park forever — the gateway's nowait path must answer 429 with
        # Retry-After immediately instead.
        directory = TenantDirectory([Tenant("solo", "key-solo")])
        service = LabelingService(
            engine,
            truth=truth,
            spec=LabelingSpec(deadline=0.35),
            max_depth=2,
            overflow="block",
        )
        gw = LabelingGateway(service, directory, dataset).start_background()
        try:
            ids = [item.item_id for item in dataset][:3]
            status, _, body = call(
                gw,
                "POST",
                "/v1/label/batch",
                {"items": ids[:2], "mode": "job"},
                key="key-solo",
            )
            assert status == 202
            started = time.monotonic()
            status, headers, body = call(
                gw, "POST", "/v1/label", {"item_id": ids[2]}, key="key-solo"
            )
            elapsed = time.monotonic() - started
            assert status == 429
            assert body["reason"] == "backpressure"
            assert int(headers["Retry-After"]) >= 1
            assert elapsed < 5.0  # immediate rejection, not a queue wait
        finally:
            gw.stop_background()
            service.queue.close()


    def test_draining_service_never_leaks_quota(self, engine, truth, dataset):
        # A service that stopped accepting refuses the whole call before
        # it holds anything; the quota slots taken at the gate come back
        # on every label route (the bulk routes used to keep them).
        directory = TenantDirectory([Tenant("solo", "key-solo")])
        service = LabelingService(engine, truth=truth)
        service.drain()
        gw = LabelingGateway(service, directory, dataset).start_background()
        try:
            ids = [item.item_id for item in dataset][:2]
            status, _, body = call(
                gw, "POST", "/v1/label", {"item_id": ids[0]}, key="key-solo"
            )
            assert (status, body["reason"]) == (503, "stopped")
            for path in ("/v1/label/batch", "/v1/label/stream"):
                status, _, _ = call(gw, "POST", path, {"items": ids}, key="key-solo")
                assert status >= 500
            assert gw.tenant_inflight() == {"solo": 0}
        finally:
            gw.stop_background()
            service.shutdown()


class TestMountedObservability:
    def test_metrics_and_traces_served_from_gateway_port(self, gateway):
        status, _, text = call(gateway, "GET", "/metrics", key=None)
        assert status == 200
        text = text.decode()
        for family in (
            "repro_gateway_requests_total",
            "repro_gateway_admitted_total",
            "repro_gateway_rejected_total",
            "repro_gateway_inflight",
            "repro_gateway_e2e_seconds",
            "repro_tenant_queue_wait_seconds",
            "repro_tenant_slo_completed_total",
            "repro_requests_total",
        ):
            assert family in text, family
        assert 'tenant="alpha"' in text
        status, _, body = call(gateway, "GET", "/metrics.json", key=None)
        assert status == 200 and "repro_gateway_requests_total" in body
        status, _, body = call(gateway, "GET", "/traces?n=5", key=None)
        assert status == 200
        status, _, raw = call(gateway, "GET", "/healthz", key=None)
        assert status == 200 and raw == b"ok\n"

    def test_rejections_and_tenant_labels_in_families(self, gateway):
        snapshot = gateway.registry.snapshot()
        rejected = snapshot["repro_gateway_rejected_total"]["samples"]
        reasons = {s["labels"]["reason"] for s in rejected}
        assert "rate_limit" in reasons
        requests = snapshot["repro_gateway_requests_total"]["samples"]
        tenants = {s["labels"]["tenant"] for s in requests}
        assert {"alpha", "beta", "throttled", "-"} <= tenants

    def test_quota_accounting_returns_to_zero(self, gateway):
        # All earlier tests finished their requests: no leaked in-flight.
        deadline = time.time() + 10
        while any(gateway.tenant_inflight().values()):
            assert time.time() < deadline, gateway.tenant_inflight()
            time.sleep(0.02)


# -- durable job store --------------------------------------------------------


class TestJobDurability:
    """Batch jobs survive a gateway + service restart via the job journal."""

    def build_pair(self, engine, truth, dataset, tmp_path):
        service = LabelingService(
            engine,
            truth=truth,
            spec=LabelingSpec(deadline=0.35),
            batch_size=8,
            max_wait=0.005,
            cache_size=256,
            journal=str(tmp_path / "service"),
        )
        service.start()
        gw = LabelingGateway(
            service, DIRECTORY, dataset, journal=str(tmp_path / "jobs")
        ).start_background()
        return service, gw

    def poll_job(self, gw, job_id, want="done", timeout=15.0):
        deadline = time.time() + timeout
        while True:
            status, _, body = call(gw, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if body["status"] == want or time.time() > deadline:
                return body
            time.sleep(0.02)

    def test_finished_job_survives_restart(
        self, engine, truth, dataset, item_ids, tmp_path
    ):
        service, gw = self.build_pair(engine, truth, dataset, tmp_path)
        try:
            status, _, body = call(
                gw, "POST", "/v1/label/batch",
                {"items": item_ids[:4], "mode": "job"},
            )
            assert status == 202
            job_id = body["job_id"]
            finished = self.poll_job(gw, job_id)
            assert finished["status"] == "done"
        finally:
            gw.stop_background()
            service.shutdown()

        service2, gw2 = self.build_pair(engine, truth, dataset, tmp_path)
        try:
            status, _, restored = call(gw2, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            assert restored["status"] == "done"
            assert restored["results"] == finished["results"]
            # tenant scoping survives the restart too
            status, _, _ = call(
                gw2, "GET", f"/v1/jobs/{job_id}", key="key-beta"
            )
            assert status == 404
        finally:
            gw2.stop_background()
            service2.shutdown()

    def test_unfinished_job_completes_via_cache_probes(
        self, engine, truth, dataset, item_ids, tmp_path
    ):
        # A job that was created but never finished before the crash: the
        # restored job answers "running", then turns "done" as recovery
        # (here: fresh label traffic) lands its items in the result cache.
        import pickle as _pickle

        from repro.durability import Journal
        from repro.serving import LabelingSpec
        from repro.serving.gateway.app import _KIND_JOB_CREATE

        spec = LabelingSpec(tenant="alpha")
        journal = Journal(tmp_path / "jobs")
        journal.append(
            _KIND_JOB_CREATE,
            _pickle.dumps(("feedfacecafe0001", "alpha", item_ids[:2], spec), 4),
        )
        journal.close()

        service, gw = self.build_pair(engine, truth, dataset, tmp_path)
        try:
            status, _, body = call(gw, "GET", "/v1/jobs/feedfacecafe0001")
            assert status == 200
            assert body["status"] == "running"
            assert {row["status"] for row in body["results"]} == {"pending"}
            for item_id in item_ids[:2]:
                status, _, _body = call(
                    gw, "POST", "/v1/label", {"item_id": item_id}
                )
                assert status == 200
            body = self.poll_job(gw, "feedfacecafe0001")
            assert body["status"] == "done"
            assert [row["item_id"] for row in body["results"]] == item_ids[:2]
            assert all(row["status"] == "completed" for row in body["results"])
        finally:
            gw.stop_background()
            service.shutdown()

        # the assembled results were persisted: a second restart serves
        # them without any cache to probe
        service2, gw2 = self.build_pair(engine, truth, dataset, tmp_path)
        try:
            status, _, again = call(gw2, "GET", "/v1/jobs/feedfacecafe0001")
            assert status == 200 and again["status"] == "done"
        finally:
            gw2.stop_background()
            service2.shutdown()
