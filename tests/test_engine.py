"""The labeling engine: backend parity, batching, and record lifecycle."""

import numpy as np
import pytest

from repro.data.streams import batched
from repro.engine import (
    BACKEND_REGISTRY,
    BatchedBackend,
    LabelingEngine,
    LabelingJob,
    LabelingSpec,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.scheduling.qgreedy import AgentPredictor
from repro.zoo.oracle import GroundTruth
from sharded_contract import PoisonPredictor


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:24]


def engine_for(zoo, predictor, world_config, backend):
    return LabelingEngine(zoo, predictor, world_config, backend=backend)


#: The three constraint regimes of the paper plus the capped variant.
REGIMES = [
    pytest.param(LabelingSpec(), id="unconstrained"),
    pytest.param(LabelingSpec(max_models=4), id="max_models"),
    pytest.param(LabelingSpec(deadline=0.35), id="deadline"),
    pytest.param(
        LabelingSpec(deadline=0.5, memory_budget=8000.0), id="deadline_memory"
    ),
]


class TestBackendParity:
    """Every backend must reproduce SerialBackend's traces exactly."""

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("backend", ["batched"])
    def test_trace_identical_to_serial(
        self, zoo, world_config, predictor, truth, items, backend, regime
    ):
        serial = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, regime, truth=truth
        )
        other = engine_for(zoo, predictor, world_config, backend).label_batch(
            items, regime, truth=truth
        )
        assert len(serial) == len(other) == len(items)
        for ref, got in zip(serial, other):
            assert got.item_id == ref.item_id
            # trace-identical: same models, same order, same timings/values
            assert got.trace.executions == ref.trace.executions
            assert got.trace.total_value == ref.trace.total_value
            # identical label sets and recalls follow, but assert explicitly
            assert got.label_names == ref.label_names
            assert [l.confidence for l in got.labels] == [
                l.confidence for l in ref.labels
            ]
            assert got.recall == ref.recall

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_stream_matches_batch(
        self, zoo, world_config, predictor, truth, items, backend
    ):
        engine = engine_for(zoo, predictor, world_config, backend)
        spec = LabelingSpec(deadline=0.4)
        from_batch = engine.label_batch(items, spec, truth=truth)
        from_stream = list(
            engine.label_stream(
                iter(items),
                spec,
                truth=truth,
                batch_size=7,
            )
        )
        assert len(from_stream) == len(items)
        for ref, got in zip(from_batch, from_stream):
            assert got.item_id == ref.item_id
            assert got.trace.executions == ref.trace.executions

    def test_batched_backend_uses_one_forward_per_round(
        self, zoo, world_config, predictor, truth, items
    ):
        calls = {"batch": 0, "single": 0}

        class CountingPredictor(AgentPredictor):
            def predict(self, state):
                calls["single"] += 1
                return super().predict(state)

            def predict_batch(self, states):
                calls["batch"] += 1
                return super().predict_batch(states)

        counting = CountingPredictor(predictor.agent, predictor.n_models)
        engine = engine_for(zoo, counting, world_config, "batched")
        engine.label_batch(items, truth=truth)
        # unconstrained: every item runs all models => n_models rounds,
        # each with exactly one stacked forward and no single predictions
        assert calls["batch"] == len(zoo)
        assert calls["single"] == 0


class TestSpecParity:
    """spec= is the only way to state constraints on an engine call."""

    def test_spec_and_kwargs_together_raise(
        self, zoo, world_config, predictor, truth, items
    ):
        engine = engine_for(zoo, predictor, world_config, "batched")
        with pytest.raises(TypeError, match="deadline"):
            engine.label_batch(
                items, LabelingSpec(deadline=0.4), deadline=0.4, truth=truth
            )
        # streams reject at call time, before the first item is consumed
        with pytest.raises(TypeError, match="max_models"):
            engine.label_stream(
                items, LabelingSpec(deadline=0.4), max_models=3, truth=truth
            )

    def test_policy_override_pins_the_regime(
        self, zoo, world_config, predictor, truth, items
    ):
        # policy="qgreedy" with a deadline set keeps the deadline for
        # grouping/admission but schedules greedily over the whole zoo
        engine = engine_for(zoo, predictor, world_config, "batched")
        spec = LabelingSpec(deadline=0.2, policy="qgreedy")
        assert spec.regime == "qgreedy"
        overridden = engine.label_batch(items[:6], spec, truth=truth)
        unconstrained = engine.label_batch(items[:6], truth=truth)
        for ref, got in zip(unconstrained, overridden):
            assert got.trace.executions == ref.trace.executions


class TestRecordLifecycle:
    def test_stream_releases_engine_owned_records(
        self, zoo, world_config, predictor, items
    ):
        shared = GroundTruth(zoo, [], world_config)
        engine = engine_for(zoo, predictor, world_config, "batched")
        results = list(
            engine.label_stream(items, truth=shared, batch_size=5)
        )
        assert len(results) == len(items)
        # everything the engine recorded was evicted after yielding
        assert len(shared) == 0

    def test_stream_never_releases_preexisting_records(
        self, zoo, world_config, predictor, items
    ):
        shared = GroundTruth(zoo, items[:3], world_config)
        engine = engine_for(zoo, predictor, world_config, "serial")
        list(engine.label_stream(items, truth=shared, batch_size=4))
        # the caller's three pre-recorded items survive; engine-added ones go
        assert set(shared.item_ids) == {item.item_id for item in items[:3]}

    def test_label_batch_frees_what_it_added(self, zoo, world_config, predictor, items):
        shared = GroundTruth(zoo, items[:3], world_config)
        engine = engine_for(zoo, predictor, world_config, "batched")
        results = engine.label_batch(items[:6], truth=shared)
        assert [r.item_id for r in results] == [i.item_id for i in items[:6]]
        # the batch freed the three records it added; the caller's stay
        assert set(shared.item_ids) == {item.item_id for item in items[:3]}

    def test_failed_run_frees_its_records(self, zoo, world_config, predictor, items):
        shared = GroundTruth(zoo, [], world_config)
        batch = items[:12]
        poisoned = engine_for(
            zoo, PoisonPredictor(len(zoo), batch[5].item_id), world_config, "batched"
        )
        with pytest.raises(RuntimeError, match="poisoned item"):
            poisoned.label_batch(batch, truth=shared)
        assert len(shared) == 0
        engine = engine_for(zoo, predictor, world_config, "batched")
        results = engine.label_batch(batch, truth=shared)
        assert [r.item_id for r in results] == [i.item_id for i in batch]
        assert len(shared) == 0

    def test_failed_recording_leaves_no_hold(self, zoo, world_config, predictor, items):
        class FailingTruth(GroundTruth):
            failing = True

            def record_batch(self, batch):
                if self.failing:
                    raise RuntimeError("recording failed")
                return super().record_batch(batch)

        shared = FailingTruth(zoo, [], world_config)
        engine = engine_for(zoo, predictor, world_config, "batched")
        with pytest.raises(RuntimeError, match="recording failed"):
            engine.label_batch(items[:12], truth=shared)
        assert len(shared) == 0
        shared.failing = False
        results = engine.label_batch(items[:12], truth=shared)
        assert [r.item_id for r in results] == [i.item_id for i in items[:12]]
        # a hold left by the failed call would keep these records alive
        assert len(shared) == 0


class TestEngineApi:
    def test_make_backend_registry(self):
        assert set(BACKEND_REGISTRY) == {"serial", "batched", "process", "cluster"}
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("batched"), BatchedBackend)
        assert isinstance(make_backend("process"), ProcessPoolBackend)
        backend = BatchedBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_job_validation(self, zoo, world_config, items):
        truth = GroundTruth(zoo, items[:1], world_config)
        ids = (items[0].item_id,)
        # constraint validation happens when the spec is built, before the
        # job ever exists
        with pytest.raises(ValueError, match="requires a deadline"):
            LabelingJob(truth=truth, item_ids=ids, spec=LabelingSpec(memory_budget=1.0))
        with pytest.raises(ValueError, match="non-negative"):
            LabelingJob(truth=truth, item_ids=ids, spec=LabelingSpec(deadline=-1.0))
        with pytest.raises(TypeError, match="LabelingSpec"):
            LabelingJob(truth=truth, item_ids=ids, spec={"deadline": 0.5})
        with pytest.raises(KeyError, match="not recorded"):
            LabelingJob(truth=truth, item_ids=("missing",))
        assert LabelingJob(truth=truth, item_ids=ids).spec == LabelingSpec()

    def test_invalid_batch_size(self, zoo, world_config, predictor):
        with pytest.raises(ValueError, match="batch_size"):
            LabelingEngine(zoo, predictor, world_config, batch_size=0)

    def test_stream_invalid_batch_size_override(
        self, zoo, world_config, predictor, truth, items
    ):
        # batch_size=0 must be an error, not a silent fall-through to the
        # engine default
        engine = engine_for(zoo, predictor, world_config, "batched")
        for bad in (0, -3):
            with pytest.raises(ValueError, match="batch_size"):
                engine.label_stream(items, truth=truth, batch_size=bad)


class TestBatchedHelper:
    def test_chunks_and_tail(self):
        chunks = list(batched(range(10), 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_exact_division_has_no_empty_tail(self):
        assert list(batched(range(6), 3)) == [[0, 1, 2], [3, 4, 5]]

    def test_empty_iterable(self):
        assert list(batched([], 3)) == []

    def test_lazy_over_generators(self):
        def gen():
            yield from range(5)

        it = batched(gen(), 2)
        assert next(it) == [0, 1]
        assert next(it) == [2, 3]

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(batched([1], 0))


class TestPredictorBatch:
    def test_agent_predictor_batch_matches_loop(self, predictor, truth, items):
        from repro.core.state import LabelingState

        states = [LabelingState(truth, item.item_id) for item in items[:6]]
        states[1].execute(0)
        states[3].execute(2)
        stacked = predictor.predict_batch(states)
        assert stacked.shape == (6, predictor.n_models)
        looped = np.stack([predictor.predict(s) for s in states])
        np.testing.assert_allclose(stacked, looped, rtol=0, atol=1e-12)

    def test_q_values_rejects_wrong_width(self, trained, space):
        # One kernel serves single observations and batches, so the width
        # is what it checks: a narrower row would prune to wrong Q values.
        with pytest.raises(ValueError, match="observations"):
            trained.agent.q_values(np.zeros((2, len(space) - 1)))
