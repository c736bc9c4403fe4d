"""The chunk codecs, and the process pool's carrier and its telemetry.

The codec tests hold for every transport; the backend test checks that
the executor pipe carries both payload kinds and that traces still match
the serial reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import LabelingEngine, ProcessPoolBackend
from repro.engine.shm import (
    decode_records,
    decode_traces,
    encode_records,
    encode_traces,
)
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import ItemRecord


@pytest.fixture(scope="module")
def predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:12]


def engine_for(zoo, predictor, world_config, backend):
    return LabelingEngine(zoo, predictor, world_config, backend=backend)


def assert_same_traces(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.item_id == r.item_id
        assert g.trace.executions == r.trace.executions


class TestRecordCodec:
    def test_round_trip_preserves_scheduling_surface(self, truth, zoo, items):
        records = [truth.record(item.item_id) for item in items[:5]]
        payload = encode_records(records)
        assert payload is not None
        decoded = decode_records(payload, zoo)
        assert len(decoded) == len(records)
        for want, got in zip(records, decoded):
            assert got.item.item_id == want.item.item_id
            assert got.item.dataset == want.item.dataset
            assert (got.n_models, got.n_labels) == (want.n_models, want.n_labels)
            assert got.total_value == want.total_value
            np.testing.assert_array_equal(got.solo_values, want.solo_values)
            np.testing.assert_array_equal(got.useful_models, want.useful_models)
            np.testing.assert_array_equal(
                got.best_confidence, want.best_confidence
            )
            for w_pair, g_pair in zip(want.valuable_pairs, got.valuable_pairs):
                np.testing.assert_array_equal(g_pair[0], w_pair[0])
                np.testing.assert_array_equal(g_pair[1], w_pair[1])
            # What travels is the scheduling surface: the valuable
            # emissions, and nothing standing in for the rest.
            assert got.valuable.all()
            for have, sent in zip(got.valuable_columns, want.valuable_columns):
                np.testing.assert_array_equal(have, sent)
            assert len(payload) < 2048 * len(records)

    def test_decoded_record_renders_what_it_carries(self, truth, zoo, items):
        item_id = items[0].item_id
        want = truth.record(item_id)
        shipped = type(truth)(zoo, [], truth.config)
        shipped.adopt(decode_records(encode_records([want]), zoo))
        for j in range(len(zoo)):
            output = shipped.output(item_id, j)
            assert output.labels == truth.valuable_labels(item_id, j)
            assert shipped.valuable_labels(item_id, j) == output.labels

    def test_truncated_shard_raises_instead_of_reading_past_the_end(
        self, truth, zoo, items
    ):
        payload = encode_records([truth.record(i.item_id) for i in items[:3]])
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                decode_records(payload[:cut], zoo)
            with pytest.raises(ValueError):
                decode_records(memoryview(payload)[:cut], zoo)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_items", 4),  # more items than the buffer holds
            ("padded_id_len", 1 << 40),  # id runs past the end
            ("padded_id_len", 4),  # ... or is not 8-aligned
            ("id_len", 1 << 20),  # id longer than its padding
            ("first_offset", 1),  # offsets must start at 0
            ("last_offset", 1 << 50),  # emission count overruns the buffer
            ("last_offset", -8),  # ... or is negative
            ("mid_offset", 1 << 50),  # non-monotone slice bounds
        ],
    )
    def test_count_corrupted_shard_raises(self, truth, zoo, items, field, value):
        record = truth.record(items[0].item_id)
        payload = bytearray(encode_records([record]))
        id_len = len(record.item.item_id.encode())
        offsets_at = 24 + 16 + id_len + (-id_len % 8)
        where = {
            "n_items": 0,
            "padded_id_len": 24,
            "id_len": 32,
            "first_offset": offsets_at,
            "mid_offset": offsets_at + 8 * (len(zoo) // 2),
            "last_offset": offsets_at + 8 * len(zoo),
        }[field]
        payload[where : where + 8] = np.int64(value).tobytes()
        with pytest.raises(ValueError):
            decode_records(bytes(payload), zoo)

    def test_decoded_arrays_are_readonly_views(self, truth, zoo, items):
        payload = encode_records([truth.record(items[0].item_id)])
        [decoded] = decode_records(payload, zoo)
        for array in (decoded.solo_values, decoded.best_confidence):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_empty_shard_is_non_conforming(self):
        assert encode_records([]) is None

    def test_subclassed_record_falls_back(self, truth, items):
        # Historical name: there is nothing to fall back to any more, a
        # record the layout cannot carry is refused at encode.
        class CustomRecord(ItemRecord):
            pass

        record = truth.record(items[0].item_id)
        custom = CustomRecord(**dataclasses.asdict(record))
        with pytest.raises(TypeError, match="CustomRecord"):
            encode_records([custom])
        # A conforming record in the same shard does not rescue it.
        with pytest.raises(TypeError, match="CustomRecord"):
            encode_records([record, custom])

    def test_inconsistent_shapes_fall_back(self, truth, items):
        # Historical name, as above: a ragged shard is a TypeError.
        first = truth.record(items[0].item_id)
        fewer_models = dataclasses.replace(first, offsets=first.offsets[:-1])
        with pytest.raises(TypeError, match="in a shard of"):
            encode_records([first, fewer_models])
        other_space = dataclasses.replace(first, n_labels=first.n_labels - 1)
        with pytest.raises(TypeError, match="in a shard of"):
            encode_records([first, other_space])

    def test_zoo_mismatch_rejected_on_decode(self, truth, zoo, items):
        payload = encode_records([truth.record(items[0].item_id)])
        subset = ModelZoo(zoo.models[:5], zoo.space)
        with pytest.raises(ValueError, match="zoo has"):
            decode_records(payload, subset)

    def test_adopted_decoded_records_schedule_identically(
        self, truth, zoo, world_config, items
    ):
        from repro.zoo.oracle import GroundTruth

        ids = [item.item_id for item in items[:4]]
        payload = encode_records([truth.record(i) for i in ids])
        empty = GroundTruth(zoo, [], world_config)
        adopted = empty.adopt(decode_records(payload, zoo))
        try:
            scheduler = CostQGreedyScheduler(OraclePredictor(empty))
            reference = CostQGreedyScheduler(OraclePredictor(truth))
            for item_id in ids:
                got = scheduler.schedule(empty, item_id, 0.5)
                want = reference.schedule(truth, item_id, 0.5)
                assert got.executions == want.executions
        finally:
            empty.release_many(adopted)


class TestTraceCodec:
    def test_round_trip(self, truth, items):
        scheduler = CostQGreedyScheduler(OraclePredictor(truth))
        ids = [item.item_id for item in items[:6]]
        traces = [scheduler.schedule(truth, i, 0.4) for i in ids]
        decoded = decode_traces(encode_traces(traces), ids, truth.zoo.names)
        for want, got in zip(traces, decoded):
            assert got.item_id == want.item_id
            assert got.total_value == want.total_value
            assert got.executions == want.executions

    def test_empty_trace_round_trips(self, truth, items):
        scheduler = CostQGreedyScheduler(OraclePredictor(truth))
        ids = [items[0].item_id]
        traces = [scheduler.schedule(truth, ids[0], 0.0)]  # nothing executes
        [decoded] = decode_traces(encode_traces(traces), ids, truth.zoo.names)
        assert decoded.executions == []

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p[:2], "no header"),
            (lambda p: p[:12], "headers"),
            (lambda p: p[:-4], "n_exec"),  # last row cut short
            (lambda p: p[:16] + np.int64(-1).tobytes() + p[24:], "n_exec"),
            (lambda p: p[:16] + np.int64(1 << 40).tobytes() + p[24:], "n_exec"),
            (lambda p: p[:24] + np.int32(-1).tobytes() + p[28:], "model"),
            (lambda p: p[:24] + np.int32(99).tobytes() + p[28:], "model"),
        ],
        ids=[
            "two-bytes",
            "short-heads",
            "short-rows",
            "n_exec=-1",
            "n_exec=2**40",
            "model=-1",
            "model=99",
        ],
    )
    def test_corrupt_shard_raises_naming_the_field(self, truth, items, corrupt, match):
        # One trace: <Q n> at 0, (total, n_exec) at 8, first row's model at
        # 24.  These bytes come off a socket on the cluster path; a wrong
        # trace (model -1 is the zoo's last model to Python) is worse than
        # an error.
        scheduler = CostQGreedyScheduler(OraclePredictor(truth))
        ids = [items[0].item_id]
        payload = encode_traces([scheduler.schedule(truth, ids[0], 0.4)])
        assert decode_traces(payload, ids, truth.zoo.names)[0].executions
        with pytest.raises(ValueError, match=match):
            decode_traces(corrupt(payload), ids, truth.zoo.names)

    def test_id_count_mismatch_rejected(self, truth, items):
        scheduler = CostQGreedyScheduler(OraclePredictor(truth))
        ids = [item.item_id for item in items[:2]]
        payload = encode_traces([scheduler.schedule(truth, i, 0.4) for i in ids])
        with pytest.raises(ValueError, match="item ids were given"):
            decode_traces(payload, ids[:1], truth.zoo.names)


class TestBackendTransport:
    def _two_batches_with_deltas(self, zoo, world_config, predictor, backend, items):
        """Label two disjoint batches on one shared truth.

        The pool's world snapshot is captured during the first batch, so
        the second batch's records are post-snapshot and must travel as
        chunk deltas.
        """
        from repro.zoo.oracle import GroundTruth

        shared = GroundTruth(zoo, [], world_config)
        engine = engine_for(zoo, predictor, world_config, backend)
        first = engine.label_batch(items[:6], truth=shared)
        second = engine.label_batch(items[6:12], truth=shared)
        return first + second

    def test_shm_fast_path_used_for_deltas_and_results(
        self, zoo, world_config, predictor, truth, items
    ):
        # Historical name: the executor pipe is the pool's one carrier.
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            got = self._two_batches_with_deltas(
                zoo, world_config, predictor, backend, items
            )
            transport = backend.chunk_stats["transport"]
        assert_same_traces(got, ref)
        assert set(transport) == {"delta_pipe", "result_pipe"}
        assert transport["delta_pipe"] > 0
        assert transport["result_pipe"] > 0
