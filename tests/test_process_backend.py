"""ProcessPoolBackend: parity, snapshot lifecycle, crash handling, serving.

Set ``REPRO_MP_CONTEXT=spawn`` (the CI spawn leg does) to run every
pool-backed test under that start method; unset, the platform default
(fork on Linux) applies.
"""

import multiprocessing
import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine import (
    LabelingEngine,
    ProcessConfig,
    ProcessPoolBackend,
    WorldSnapshot,
    make_backend,
)
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor, QValuePredictor
from repro.serving import LabelingService
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth
from sharded_contract import ShardedContract


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:12]


def engine_for(zoo, predictor, world_config, backend):
    return LabelingEngine(zoo, predictor, world_config, backend=backend)


def process_backend(**kwargs):
    """ProcessPoolBackend honoring the ``REPRO_MP_CONTEXT`` env override."""
    method = os.environ.get("REPRO_MP_CONTEXT")
    if method:
        kwargs.setdefault("mp_context", multiprocessing.get_context(method))
    return ProcessPoolBackend(**kwargs)


class WorkerKiller(QValuePredictor):
    """Picklable predictor that hard-kills its worker on one item."""

    def __init__(self, n_models: int, victim: str | None = None):
        self.n_models = n_models
        self.victim = victim

    def predict(self, state):
        if state.item_id == self.victim:
            os._exit(13)
        return np.zeros(self.n_models)


#: (workers, chunk_size, slot_bytes): every chunk size of the contract on
#: ring slots that fit the payloads and on 64-byte ones that never do.
SHARDINGS = [
    pytest.param(1, None, 1 << 20, id="w1"),
    pytest.param(2, None, 1 << 20, id="w2"),
    pytest.param(2, 1, 1 << 20, id="w2-chunk1"),
    pytest.param(2, 3, 1 << 20, id="w2-chunk3"),
    pytest.param(3, 5, 1 << 20, id="w3-chunk5"),
    pytest.param(2, None, 64, id="w2-slot64"),
    pytest.param(2, 1, 64, id="w2-chunk1-slot64"),
    pytest.param(2, 3, 64, id="w2-chunk3-slot64"),
]


class TestProcessParity(ShardedContract):
    """Process traces must equal SerialBackend's for every sharding."""

    @pytest.mark.parametrize("workers,chunk_size,slot_bytes", SHARDINGS)
    def test_trace_identical_to_serial_all_regimes(
        self, workers, chunk_size, slot_bytes
    ):
        self.check_serial_parity(
            process_backend(
                max_workers=workers, chunk_size=chunk_size, slot_bytes=slot_bytes
            )
        )

    def test_ephemeral_truth_ships_chunk_deltas(self):
        self.check_post_snapshot_records_ship_as_deltas(process_backend(max_workers=2))

    def test_oracle_predictor_crosses_the_process_boundary(self):
        self.check_oracle_predictor_crosses_the_boundary(process_backend(max_workers=2))


class TestPoolLifecycle(ShardedContract):
    def test_pool_and_snapshot_reused_across_jobs(self):
        backend = process_backend(max_workers=2)
        self.check_snapshot_shipped_once_and_reused(backend, lambda b: b._pool)
        assert backend._pool is None  # context exit closed the pool

    def test_single_item_takes_the_serial_path(self):
        self.check_single_item_takes_the_local_path(process_backend(max_workers=2))

    def test_sequential_world_switch_respawns(
        self, zoo, world_config, trained, truth, items
    ):
        # A new predictor object is a new world: with nothing in flight
        # the pool tears down and respawns with a fresh snapshot.
        first = AgentPredictor(trained.agent, len(zoo))
        second = AgentPredictor(trained.agent, len(zoo))
        with process_backend(max_workers=2) as backend:
            engine_for(zoo, first, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            old_pool = backend._pool
            engine_for(zoo, second, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            assert backend._pool is not old_pool

    def test_world_switch_while_in_flight_raises(self):
        self.check_world_switch_while_in_flight_raises(process_backend(max_workers=2))

    def test_caller_built_backend_survives_service_shutdown(
        self, zoo, world_config, predictor, truth, items
    ):
        # The service closes only backends it constructed from a registry
        # name; a caller-built instance may be shared and stays open.
        engine = engine_for(zoo, predictor, world_config, "batched")
        with process_backend(max_workers=2) as backend:
            service = LabelingService(
                engine, backend=backend, batch_size=4, workers=2, truth=truth
            )
            with service:
                [f.result(timeout=60) for f in service.submit_many(items[:8])]
                service.drain()
            assert backend._pool is not None  # shutdown left it alive
            # and it still runs jobs afterwards
            results = engine_for(zoo, predictor, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            assert len(results) == 4

    def test_make_backend_kwargs(self):
        backend = make_backend(ProcessConfig(max_workers=3, chunk_size=2))
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3
        assert backend.chunk_size == 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ProcessPoolBackend(chunk_size=0)


class TestWorldSnapshot:
    def test_restore_reproduces_truth_and_predictor(
        self, zoo, world_config, predictor, truth, items
    ):
        snapshot = WorldSnapshot.capture(truth, predictor)
        assert snapshot.zoo_payload is None  # standard build: config is enough
        restored_truth, restored_predictor = snapshot.restore()
        assert set(restored_truth.item_ids) == set(truth.item_ids)
        from repro.core.state import LabelingState

        for item in items[:3]:
            state = LabelingState(truth, item.item_id)
            mirror = LabelingState(restored_truth, item.item_id)
            np.testing.assert_allclose(
                restored_predictor.predict(mirror),
                predictor.predict(state),
                rtol=0,
                atol=0,
            )

    def test_custom_zoo_falls_back_to_pickle(
        self, zoo, world_config, dataset, predictor
    ):
        # A zoo that build_zoo(config) cannot reproduce must travel whole.
        subset = ModelZoo(zoo.models[:5], zoo.space)
        truth = GroundTruth(subset, list(dataset)[:2], world_config)
        agent = make_agent(
            "dueling_dqn", obs_dim=len(zoo.space), n_actions=6, hidden_size=16
        )
        snapshot = WorldSnapshot.capture(truth, AgentPredictor(agent, 5))
        assert snapshot.zoo_payload is not None
        restored_truth, _ = snapshot.restore()
        assert restored_truth.zoo.names == subset.names

    def test_unpicklable_predictor_is_rejected(self, truth):
        class Local(QValuePredictor):  # local classes cannot pickle
            def predict(self, state):  # pragma: no cover
                return np.zeros(1)

        with pytest.raises(TypeError, match="cannot snapshot predictor"):
            WorldSnapshot.capture(truth, Local())


class TestCrashPropagation(ShardedContract):
    def test_poisoned_item_fails_the_job_not_the_pool(self):
        self.check_chunk_error_fails_the_job_not_the_workers(
            process_backend(max_workers=2, chunk_size=2)
        )

    def test_dead_worker_breaks_the_job_then_pool_respawns(
        self, zoo, world_config, truth, items
    ):
        killer = WorkerKiller(len(zoo), victim=items[0].item_id)
        with process_backend(max_workers=2, chunk_size=2) as backend:
            engine = engine_for(zoo, killer, world_config, backend)
            with pytest.raises(BrokenProcessPool):
                engine.label_batch(items[:4], truth=truth)
            assert backend._pool is None  # broken pool was discarded
            # The same backend recovers by respawning for the next job.
            survivors = engine.label_batch(items[1:5], truth=truth)
            assert len(survivors) == 4


class TestServiceProcessBackend:
    def test_service_end_to_end_with_cache(
        self, zoo, world_config, predictor, truth, items
    ):
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        engine = engine_for(zoo, predictor, world_config, "batched")
        service = LabelingService(
            engine,
            backend="process",
            batch_size=4,
            max_wait=0.005,
            workers=2,
            truth=truth,
            cache_size=128,
        )
        assert isinstance(service.engine.backend, ProcessPoolBackend)
        assert service.engine is not engine  # caller's engine untouched
        with service:
            first = [f.result(timeout=60) for f in service.submit_many(items)]
            again = [f.result(timeout=60) for f in service.submit_many(items)]
            service.drain()
        for r, g in zip(ref, first):
            assert g.item_id == r.item_id
            assert g.trace.executions == r.trace.executions
        for r, g in zip(first, again):
            assert g.item_id == r.item_id
        snapshot = service.snapshot()
        assert snapshot.counters["failed"] == 0
        # The replay round was answered by the cache: a resolved entry
        # counts as a hit, one whose settle is mid-flight coalesces.
        assert (
            snapshot.counters["cache_hit"] + snapshot.counters["coalesced"]
            == len(items)
        )
        # Per-worker dispatch counters name the scheduling processes.
        assert snapshot.workers
        assert all(worker.startswith("pid") for worker in snapshot.workers)
        assert sum(snapshot.workers.values()) >= len(items)
        # Shutdown closed the service-owned process pool.
        assert service.engine.backend._pool is None

    def test_unrecorded_items_on_shared_truth(
        self, zoo, world_config, predictor, items
    ):
        # Empty shared truth + novel items: the snapshot is captured
        # while worker threads are still recording, post-snapshot records
        # travel as chunk deltas, and parent-side refcounting leaves the
        # shared cache empty afterwards.
        shared = GroundTruth(zoo, [], world_config)
        engine = engine_for(zoo, predictor, world_config, "batched")
        service = LabelingService(
            engine,
            backend="process",
            batch_size=3,
            max_wait=0.005,
            workers=2,
            truth=shared,
        )
        with service:
            results = [f.result(timeout=60) for f in service.submit_many(items)]
            service.drain()
        assert [r.item_id for r in results] == [i.item_id for i in items]
        assert service.snapshot().counters["failed"] == 0
        assert len(shared) == 0
