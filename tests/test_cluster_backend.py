"""ClusterBackend: placement, parity, lifecycle, chaos, refresh, serving.

In-process workers (``serve_background``) keep the parity and lifecycle
tests fast; the chaos tests use real worker *processes* via
:func:`spawn_local_workers` so SIGKILL means SIGKILL.  Set
``REPRO_MP_CONTEXT=spawn`` (the CI spawn leg does) to run the
process-fleet tests under that start method.
"""

import multiprocessing
import os
import threading

import pytest

from repro.engine import (
    ClusterBackend,
    ClusterConfig,
    ClusterWorker,
    LabelingEngine,
    WorkerDied,
    spawn_local_workers,
)
from repro.engine.cluster import _parse_address
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService
from sharded_contract import ShardedContract, assert_parity


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:12]


@pytest.fixture(scope="module")
def inproc_addresses():
    """Three in-process socket workers shared by the fast tests."""
    workers = [ClusterWorker().serve_background() for _ in range(3)]
    yield tuple(worker.address for worker in workers)
    for worker in workers:
        worker.stop()


def engine_for(zoo, predictor, world_config, backend):
    return LabelingEngine(zoo, predictor, world_config, backend=backend)


def mp_ctx():
    """The ``REPRO_MP_CONTEXT`` multiprocessing context override, if any."""
    method = os.environ.get("REPRO_MP_CONTEXT")
    return multiprocessing.get_context(method) if method else None


def job_deltas(backend, engine, jobs, truth):
    """Per-job ``dispatch_counts`` deltas, one dict per job run."""
    deltas = []
    for job in jobs:
        before = backend.dispatch_counts
        engine.label_batch(job, truth=truth)
        after = backend.dispatch_counts
        deltas.append({w: after[w] - before.get(w, 0) for w in after})
    return deltas


class TestPlacement:
    """Chunk ``i`` goes to live link ``i mod n``: every job is balanced."""

    def test_two_chunk_jobs_split_one_chunk_per_worker(
        self, zoo, world_config, predictor, truth, items, inproc_addresses
    ):
        # Eight distinct 2-item jobs, each planned as two 1-item chunks.
        addresses = inproc_addresses[:2]
        with ClusterBackend(workers=addresses) as backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            jobs = [items[j : j + 2] for j in range(8)]
            for delta in job_deltas(backend, engine, jobs, truth):
                assert delta == {address: 1 for address in addresses}

    def test_chunk_counts_differ_by_at_most_one(
        self, zoo, world_config, predictor, truth, items, inproc_addresses
    ):
        with ClusterBackend(workers=inproc_addresses, chunk_size=1) as backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            for delta in job_deltas(backend, engine, [items, items[5:]], truth):
                counts = [delta.get(a, 0) for a in inproc_addresses]
                assert max(counts) - min(counts) <= 1, counts


class TestAddresses:
    @pytest.mark.parametrize("bad", ["nocolon", ":9000", "host:", "host:x"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            _parse_address(bad)

    def test_valid(self):
        assert _parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_backend_validates_eagerly(self):
        with pytest.raises(ValueError, match="host:port"):
            ClusterBackend(workers=("nocolon",))
        with pytest.raises(ValueError, match="needs workers"):
            ClusterBackend()


class TestClusterParity(ShardedContract):
    """Cluster traces must equal SerialBackend's for every sharding."""

    @pytest.mark.parametrize(
        "n_workers,chunk_size",
        [(1, None), (3, None), (3, 1), (3, 2), (3, 3), (2, 5)],
        ids=["w1", "w3", "w3-chunk1", "w3-chunk2", "w3-chunk3", "w2-chunk5"],
    )
    def test_trace_identical_to_serial_all_regimes(
        self, inproc_addresses, n_workers, chunk_size
    ):
        self.check_serial_parity(
            ClusterBackend(workers=inproc_addresses[:n_workers], chunk_size=chunk_size)
        )

    def test_post_snapshot_records_ship_as_chunk_deltas(self, inproc_addresses):
        self.check_post_snapshot_records_ship_as_deltas(
            ClusterBackend(workers=inproc_addresses[:2])
        )

    def test_oracle_predictor_crosses_the_wire(self, inproc_addresses):
        self.check_oracle_predictor_crosses_the_boundary(
            ClusterBackend(workers=inproc_addresses[:2])
        )

    def test_single_item_takes_the_local_path(self, inproc_addresses):
        backend = ClusterBackend(workers=inproc_addresses)
        self.check_single_item_takes_the_local_path(backend)
        assert backend.cluster_stats["snapshot_ships"] == 0  # never connected


class TestClusterLifecycle(ShardedContract):
    def test_snapshot_ships_once_and_connections_reuse(self, inproc_addresses):
        backend = ClusterBackend(workers=inproc_addresses)
        self.check_snapshot_shipped_once_and_reused(backend, lambda b: dict(b._links))
        stats = backend.cluster_stats
        assert stats["snapshot_ships"] == len(inproc_addresses)

    def test_world_switch_reships_snapshots(
        self, zoo, world_config, trained, truth, items, inproc_addresses
    ):
        first = AgentPredictor(trained.agent, len(zoo))
        second = AgentPredictor(trained.agent, len(zoo))
        with ClusterBackend(workers=inproc_addresses[:2]) as backend:
            engine_for(zoo, first, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            engine_for(zoo, second, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            assert backend.cluster_stats["snapshot_ships"] == 4  # 2 workers x 2

    def test_world_switch_while_in_flight_raises(self, inproc_addresses):
        self.check_world_switch_while_in_flight_raises(
            ClusterBackend(workers=inproc_addresses[:2])
        )

    def test_unreachable_worker_is_skipped_with_survivors(
        self, zoo, world_config, predictor, truth, items, inproc_addresses
    ):
        # Port 1 refuses connections; the job lands on the live workers.
        addresses = inproc_addresses[:2] + ("127.0.0.1:1",)
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with ClusterBackend(workers=addresses, connect_timeout=2.0) as backend:
            got = engine_for(zoo, predictor, world_config, backend).label_batch(
                items, truth=truth
            )
            stats = backend.cluster_stats["workers"]
            assert not stats["127.0.0.1:1"]["alive"]
        assert_parity(got, ref)

    def test_no_reachable_workers_raises(
        self, zoo, world_config, predictor, truth, items
    ):
        with ClusterBackend(
            workers=("127.0.0.1:1",), connect_timeout=2.0
        ) as backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            with pytest.raises(RuntimeError, match="no live cluster workers"):
                engine.label_batch(items, truth=truth)

    def test_close_then_reuse_reconnects(
        self, zoo, world_config, predictor, truth, items, inproc_addresses
    ):
        backend = ClusterBackend(workers=inproc_addresses[:2])
        engine = engine_for(zoo, predictor, world_config, backend)
        engine.label_batch(items[:4], truth=truth)
        backend.close()
        assert backend._links == {}
        backend.close()  # idempotent
        engine.label_batch(items[:4], truth=truth)  # reconnect + re-ship
        assert backend.cluster_stats["snapshot_ships"] == 4
        backend.close()


class TestRefresh:
    def test_refresh_before_any_job_raises(self, inproc_addresses, predictor):
        with ClusterBackend(workers=inproc_addresses[:1]) as backend:
            with pytest.raises(RuntimeError, match="before any job"):
                backend.refresh(predictor)

    def test_refresh_while_in_flight_raises(
        self, zoo, world_config, predictor, truth, items, inproc_addresses
    ):
        with ClusterBackend(workers=inproc_addresses[:1]) as backend:
            engine_for(zoo, predictor, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            backend._active += 1
            try:
                with pytest.raises(RuntimeError, match="in flight"):
                    backend.refresh(predictor)
            finally:
                backend._active -= 1

    def test_refresh_hot_swaps_without_reshipping(
        self, zoo, world_config, trained, truth, items, inproc_addresses
    ):
        # New predictor object, same world otherwise: refresh() sends one
        # control frame per worker instead of tearing down connections,
        # and the next job runs against the refreshed weights in parity
        # with a serial run of the new predictor.
        old = AgentPredictor(trained.agent, len(zoo))
        new = AgentPredictor(trained.agent, len(zoo))
        ref = engine_for(zoo, new, world_config, "serial").label_batch(
            items, truth=truth
        )
        with ClusterBackend(workers=inproc_addresses) as backend:
            engine_for(zoo, old, world_config, backend).label_batch(
                items, truth=truth
            )
            assert backend.refresh(new) == len(inproc_addresses)
            got = engine_for(zoo, new, world_config, backend).label_batch(
                items, truth=truth
            )
            stats = backend.cluster_stats
            assert stats["refreshes"] == 1
            # world re-anchored on the new predictor: no snapshot re-ship
            assert stats["snapshot_ships"] == len(inproc_addresses)
        assert_parity(got, ref)


class TestChaos(ShardedContract):
    """Real worker processes, real SIGKILL."""

    def test_chunk_error_fails_the_job_not_the_cluster(self, inproc_addresses):
        self.check_chunk_error_fails_the_job_not_the_workers(
            ClusterBackend(workers=inproc_addresses[:2], chunk_size=2)
        )

    def test_sigkill_mid_job_redispatches_with_identical_trace(
        self, zoo, world_config, predictor, truth, items
    ):
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with spawn_local_workers(
            3, mp_context=mp_ctx(), delay_per_item=0.05
        ) as fleet:
            with ClusterBackend(workers=fleet.addresses, chunk_size=2) as backend:
                engine = engine_for(zoo, predictor, world_config, backend)
                engine.label_batch(items, truth=truth)  # warm: ship world
                # Kill the worker that owned the most items in the warm
                # run — identical items and chunking mean it owns chunks
                # of the next job too, and 0.05s/item of delay keeps it
                # busy well past the kill.
                counts = backend.dispatch_counts
                victim = max(
                    range(3), key=lambda i: counts.get(fleet.addresses[i], 0)
                )
                timer = threading.Timer(0.08, fleet.kill, args=(victim,))
                timer.start()
                try:
                    got = engine.label_batch(items, truth=truth)
                finally:
                    timer.cancel()
                stats = backend.cluster_stats
                assert stats["redispatched"] >= 1
                assert not stats["workers"][fleet.addresses[victim]]["alive"]
        assert_parity(got, ref)

    def test_dead_worker_rejoins_with_fresh_snapshot(
        self, zoo, world_config, predictor, truth, items
    ):
        with spawn_local_workers(2, mp_context=mp_ctx()) as fleet:
            with ClusterBackend(workers=fleet.addresses, chunk_size=3) as backend:
                engine = engine_for(zoo, predictor, world_config, backend)
                ref = engine.label_batch(items, truth=truth)
                fleet.kill(0)
                # Job while one worker is down: survivors cover its chunks.
                down = engine.label_batch(items, truth=truth)
                assert_parity(down, ref)
                # Same port, fresh process: the next job re-ships the
                # snapshot to the rejoined worker and uses it again.
                fleet.restart(0)
                back = engine.label_batch(items, truth=truth)
                assert_parity(back, ref)
                stats = backend.cluster_stats
                assert stats["workers"][fleet.addresses[0]]["snapshot_ships"] == 2
                assert all(w["alive"] for w in stats["workers"].values())

    def test_worker_died_is_a_connection_error(self):
        exc = WorkerDied("10.0.0.7:9000", "mid-frame")
        assert isinstance(exc, ConnectionError)
        assert exc.address == "10.0.0.7:9000"
        assert "10.0.0.7:9000" in str(exc)


class TestServiceCluster:
    def test_service_end_to_end_owns_and_closes_the_fleet(
        self, zoo, world_config, predictor, truth, items
    ):
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        engine = engine_for(zoo, predictor, world_config, "batched")
        service = LabelingService(
            engine,
            backend=ClusterConfig(local_workers=2, mp_context=mp_ctx()),
            batch_size=4,
            max_wait=0.005,
            workers=2,
            truth=truth,
        )
        assert isinstance(service.engine.backend, ClusterBackend)
        with service:
            results = [f.result(timeout=60) for f in service.submit_many(items)]
            service.drain()
        assert_parity(results, ref)
        snapshot = service.snapshot()
        assert snapshot.counters["failed"] == 0
        # Per-worker dispatch counters name the socket workers.
        assert any(":" in worker for worker in snapshot.workers)
        # Shutdown closed the service-owned backend: links and fleet gone.
        assert service.engine.backend._links == {}
        assert service.engine.backend._fleet is None

    def test_lazy_local_fleet_spawns_on_first_job(
        self, zoo, world_config, predictor, truth, items
    ):
        with ClusterBackend(local_workers=2, mp_context=mp_ctx()) as backend:
            assert backend._fleet is None  # nothing spawned at config time
            engine = engine_for(zoo, predictor, world_config, backend)
            got = engine.label_batch(items, truth=truth)
            assert backend._fleet is not None
            assert len(backend._fleet.addresses) == 2
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        assert_parity(got, ref)


class TestDialRetry:
    """Worker dials retry transient refusals with jittered backoff."""

    def retrying_backend(self, monkeypatch, failures: int, **kwargs):
        kwargs.setdefault("connect_attempts", 3)
        kwargs.setdefault("connect_backoff", 0.2)
        backend = ClusterBackend(workers=("host:1",), **kwargs)
        attempts, sleeps = [], []
        sentinel = object()

        def fake_link(address, timeout):
            attempts.append((address, timeout))
            if len(attempts) <= failures:
                raise ConnectionRefusedError("worker still starting")
            return sentinel

        monkeypatch.setattr("repro.engine.cluster._Link", fake_link)
        monkeypatch.setattr("repro.engine.cluster.time.sleep", sleeps.append)
        return backend, attempts, sleeps, sentinel

    def test_transient_refusal_retries_then_connects(self, monkeypatch):
        backend, attempts, sleeps, sentinel = self.retrying_backend(
            monkeypatch, failures=2
        )
        assert backend._dial("host:1") is sentinel
        assert len(attempts) == 3
        # jittered exponential backoff: base*[0.5,1.5], then doubled
        assert len(sleeps) == 2
        assert 0.1 <= sleeps[0] <= 0.3
        assert 0.2 <= sleeps[1] <= 0.6

    def test_exhausted_attempts_raise_the_last_error(self, monkeypatch):
        backend, attempts, sleeps, _ = self.retrying_backend(
            monkeypatch, failures=99
        )
        with pytest.raises(ConnectionRefusedError):
            backend._dial("host:1")
        assert len(attempts) == 3
        assert len(sleeps) == 2  # no sleep after the final failure

    def test_single_attempt_never_sleeps(self, monkeypatch):
        backend, attempts, sleeps, _ = self.retrying_backend(
            monkeypatch, failures=99, connect_attempts=1
        )
        with pytest.raises(ConnectionRefusedError):
            backend._dial("host:1")
        assert (len(attempts), len(sleeps)) == (1, 0)

    def test_config_fields_flow_through_build_and_validate(self):
        config = ClusterConfig(
            workers=("host:1",), connect_attempts=5, connect_backoff=0.01
        )
        backend = config.build()
        assert (backend.connect_attempts, backend.connect_backoff) == (5, 0.01)
        backend.close()
        with pytest.raises(ValueError, match="connect_attempts"):
            ClusterConfig(workers=("host:1",), connect_attempts=0)
        with pytest.raises(ValueError, match="connect_backoff"):
            ClusterConfig(workers=("host:1",), connect_backoff=-0.1)
        with pytest.raises(ValueError, match="connect_attempts"):
            ClusterBackend(workers=("host:1",), connect_attempts=0)
