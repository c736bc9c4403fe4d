"""The pipelined stream: overlap, ownership, cleanup and parity.

``LabelingEngine.label_stream`` records chunk *k+1* on the caller's
thread while up to two earlier chunks run on the backend.  These tests
pin what that pipeline promises beyond plain parity: recording really
overlaps a run, a record shared by two in-flight chunks outlives its
last reader, and an early close or a failing chunk leaves no records and
no threads behind.

Set ``REPRO_MP_CONTEXT=spawn`` (the CI spawn leg does) to run the
process-backend parity test under that start method.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.data.datasets import generate_dataset
from repro.engine import (
    BatchedBackend,
    LabelingEngine,
    LabelingSpec,
    ProcessConfig,
    SerialBackend,
)
from repro.scheduling.qgreedy import AgentPredictor
from repro.zoo.oracle import GroundTruth
from sharded_contract import PoisonPredictor, assert_parity

SPEC = LabelingSpec(deadline=0.4)


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:12]


def stream_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("labeling-stream")]


def reference(zoo, predictor, world_config, items, spec=SPEC):
    engine = LabelingEngine(zoo, predictor, world_config, backend=SerialBackend())
    return engine.label_batch(items, spec)


class SlowBackend(BatchedBackend):
    """Batched scheduling that takes long enough for chunks to overlap."""

    def run(self, job, predictor):
        time.sleep(0.005)
        return super().run(job, predictor)


def test_recording_overlaps_the_previous_run(zoo, predictor, world_config, items):
    chunk_one_recorded = threading.Event()

    class SignallingTruth(GroundTruth):
        calls = 0

        def record_batch(self, batch):
            records = super().record_batch(batch)
            self.calls += 1
            if self.calls == 2:
                chunk_one_recorded.set()
            return records

    class BlockingBackend(BatchedBackend):
        runs = 0

        def run(self, job, predictor):
            self.runs += 1
            if self.runs == 1:
                # The old serial loop ran chunk 0 before recording chunk 1,
                # so this wait timed out there.
                assert chunk_one_recorded.wait(5), "chunk 1 was not recorded"
            return super().run(job, predictor)

    shared = SignallingTruth(zoo, [], world_config)
    engine = LabelingEngine(zoo, predictor, world_config, backend=BlockingBackend())
    got = list(engine.label_stream(items[:4], SPEC, truth=shared, batch_size=2))
    assert_parity(got, reference(zoo, predictor, world_config, items[:4]))
    assert len(shared) == 0


@pytest.mark.parametrize("size", [1, 3, 7])
def test_ids_repeated_across_in_flight_chunks(
    zoo, predictor, world_config, items, size
):
    # Pairs (0, 0, 1, 1, ...) repeat an id across adjacent chunks, and the
    # period of 12 repeats one across chunks two or three apart.
    stream = [items[k // 2 % 6] for k in range(40)]
    shared = GroundTruth(zoo, [], world_config)
    engine = LabelingEngine(zoo, predictor, world_config, backend=SlowBackend())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the caller and the pool threads
    try:
        got = list(engine.label_stream(stream, SPEC, truth=shared, batch_size=size))
    finally:
        sys.setswitchinterval(interval)
    assert_parity(got, reference(zoo, predictor, world_config, stream))
    assert len(shared) == 0


def test_early_close_releases_and_joins(zoo, predictor, world_config, items):
    shared = GroundTruth(zoo, [], world_config)
    engine = LabelingEngine(zoo, predictor, world_config, backend=SlowBackend())
    stream = engine.label_stream(items, SPEC, truth=shared, batch_size=2)
    first = next(stream)
    assert first.item_id == items[0].item_id
    stream.close()
    assert len(shared) == 0
    assert stream_threads() == []


class FailingTruth(GroundTruth):
    """Truth whose recording fails on one designated item."""

    poison: str

    def record_batch(self, batch):
        if any(item.item_id == self.poison for item in batch):
            raise RuntimeError(f"poisoned item {self.poison}")
        return super().record_batch(batch)


@pytest.mark.parametrize("where", ["record", "run"])
def test_failure_surfaces_after_earlier_chunks(
    zoo, predictor, world_config, items, where
):
    size = 2
    poison = items[3 * size].item_id  # first item of chunk 3
    shared = FailingTruth(zoo, [], world_config)
    if where == "record":
        shared.poison = poison
        engine = LabelingEngine(zoo, predictor, world_config, backend="batched")
    else:
        shared.poison = None
        engine = LabelingEngine(
            zoo, PoisonPredictor(len(zoo), poison), world_config, backend="batched"
        )
    got = []
    with pytest.raises(RuntimeError, match="poisoned item"):
        for result in engine.label_stream(items, SPEC, truth=shared, batch_size=size):
            got.append(result)
    assert [r.item_id for r in got] == [i.item_id for i in items[: 3 * size]]
    if where == "record":
        assert_parity(got, reference(zoo, predictor, world_config, items[:6]))
    assert len(shared) == 0
    assert stream_threads() == []


@pytest.fixture(scope="module")
def long_stream(space, world_config):
    """Enough fresh items for three 128-item chunks."""
    return generate_dataset(space, world_config, "mirflickr25", 300).items


@pytest.mark.parametrize("chunk_size", [1, 7, None])
def test_process_backend_parity(
    zoo, predictor, world_config, long_stream, chunk_size
):
    method = os.environ.get("REPRO_MP_CONTEXT")
    config = ProcessConfig(
        max_workers=2,
        chunk_size=chunk_size,
        mp_context=multiprocessing.get_context(method) if method else None,
    )
    shared = GroundTruth(zoo, [], world_config)
    engine = LabelingEngine(zoo, predictor, world_config, backend=config)
    try:
        got = list(engine.label_stream(long_stream, SPEC, truth=shared, batch_size=128))
    finally:
        engine.backend.close()
    assert_parity(got, reference(zoo, predictor, world_config, long_stream))
    assert len(shared) == 0
    assert stream_threads() == []
