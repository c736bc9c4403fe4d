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
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QValuePredictor,
)
from repro.serving import LabelingService
from repro.spec import LabelingSpec
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth


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


#: All three paper regimes plus the capped q-greedy variant.
REGIMES = (
    LabelingSpec(),
    LabelingSpec(max_models=4),
    LabelingSpec(deadline=0.35),
    LabelingSpec(deadline=0.5, memory_budget=8000.0),
)


class PoisonPredictor(QValuePredictor):
    """Picklable predictor that raises on one designated item."""

    def __init__(self, n_models: int, poison: str | None = None):
        self.n_models = n_models
        self.poison = poison

    def predict(self, state):
        if state.item_id == self.poison:
            raise RuntimeError(f"poisoned item {state.item_id}")
        return np.zeros(self.n_models)


class WorkerKiller(QValuePredictor):
    """Picklable predictor that hard-kills its worker on one item."""

    def __init__(self, n_models: int, victim: str | None = None):
        self.n_models = n_models
        self.victim = victim

    def predict(self, state):
        if state.item_id == self.victim:
            os._exit(13)
        return np.zeros(self.n_models)


class TestProcessParity:
    """Process traces must equal SerialBackend's for every sharding."""

    @pytest.mark.parametrize(
        "workers,chunk_size",
        [(1, None), (2, None), (2, 1), (3, 5)],
        ids=["w1", "w2", "w2-chunk1", "w3-chunk5"],
    )
    def test_trace_identical_to_serial_all_regimes(
        self, zoo, world_config, predictor, truth, items, workers, chunk_size
    ):
        serial = engine_for(zoo, predictor, world_config, "serial")
        backend = process_backend(max_workers=workers, chunk_size=chunk_size)
        with backend:
            process = engine_for(zoo, predictor, world_config, backend)
            for regime in REGIMES:
                ref = serial.label_batch(items, regime, truth=truth)
                got = process.label_batch(items, regime, truth=truth)
                assert len(got) == len(ref) == len(items)
                for r, g in zip(ref, got):
                    assert g.item_id == r.item_id
                    assert g.trace.executions == r.trace.executions
                    assert g.trace.total_value == r.trace.total_value
                    assert g.label_names == r.label_names

    def test_ephemeral_truth_ships_chunk_deltas(
        self, zoo, world_config, predictor, truth, items
    ):
        # Without a shared truth the pool is keyed on the zoo/predictor,
        # so records unknown to the snapshot travel with each chunk and
        # traces still match the serial run on a shared truth (the world
        # is deterministic per item id).
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with process_backend(max_workers=2) as backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            first = engine.label_batch(items)
            second = engine.label_batch(items)  # same pool, fresh truths
        for r, g in zip(ref, first):
            assert g.trace.executions == r.trace.executions
        for r, g in zip(ref, second):
            assert g.trace.executions == r.trace.executions

    def test_oracle_predictor_crosses_the_process_boundary(
        self, zoo, world_config, truth, items
    ):
        oracle = OraclePredictor(truth)
        ref = engine_for(zoo, oracle, world_config, "serial").label_batch(
            items[:6], truth=truth
        )
        with process_backend(max_workers=2) as backend:
            got = engine_for(zoo, oracle, world_config, backend).label_batch(
                items[:6], truth=truth
            )
        for r, g in zip(ref, got):
            assert g.trace.executions == r.trace.executions


class TestPoolLifecycle:
    def test_pool_and_snapshot_reused_across_jobs(
        self, zoo, world_config, predictor, truth, items
    ):
        backend = process_backend(max_workers=2)
        with backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            engine.label_batch(items, truth=truth)
            pool_after_first = backend._pool
            engine.label_batch(items, LabelingSpec(deadline=0.4), truth=truth)
            assert backend._pool is pool_after_first  # no respawn, no re-ship
            counts = backend.dispatch_counts
            assert sum(counts.values()) == 2 * len(items)
        assert backend._pool is None  # context exit closed the pool

    def test_single_item_takes_the_serial_path(
        self, zoo, world_config, predictor, truth, items
    ):
        # No pool spin-up for singleton jobs.
        backend = process_backend(max_workers=2)
        with backend:
            engine = engine_for(zoo, predictor, world_config, backend)
            [result] = engine.label_batch(items[:1], truth=truth)
            assert result.item_id == items[0].item_id
            assert backend._pool is None

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

    def test_world_switch_while_in_flight_raises(
        self, zoo, world_config, trained, truth, items
    ):
        # Concurrent jobs from different worlds must fail loudly instead
        # of cancelling each other's chunks (simulated in-flight job).
        first = AgentPredictor(trained.agent, len(zoo))
        second = AgentPredictor(trained.agent, len(zoo))
        with process_backend(max_workers=2) as backend:
            engine_for(zoo, first, world_config, backend).label_batch(
                items[:4], truth=truth
            )
            backend._active += 1  # another thread mid-run()
            try:
                with pytest.raises(RuntimeError, match="world-affine"):
                    engine_for(zoo, second, world_config, backend).label_batch(
                        items[:4], truth=truth
                    )
            finally:
                backend._active -= 1
            # same-world traffic was never blocked
            engine_for(zoo, first, world_config, backend).label_batch(
                items[:4], truth=truth
            )

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


class TestCrashPropagation:
    def test_poisoned_item_fails_the_job_not_the_pool(
        self, zoo, world_config, truth, items
    ):
        poison = PoisonPredictor(len(zoo), poison=items[1].item_id)
        with process_backend(max_workers=2, chunk_size=2) as backend:
            engine = engine_for(zoo, poison, world_config, backend)
            with pytest.raises(RuntimeError, match="poisoned item"):
                engine.label_batch(items[:6], truth=truth)
            # The pool survived: a job avoiding the poisoned item runs.
            clean = engine.label_batch(items[2:6], truth=truth)
            assert [r.item_id for r in clean] == [i.item_id for i in items[2:6]]

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
