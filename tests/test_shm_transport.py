"""Shared-memory transport: ring mechanics, codecs, carriers, telemetry.

The ring is a *carrier only*: every test that forces payloads off it
(tiny slots, slots leaked by failed jobs) also asserts the same bytes
arrive inline and the traces still match the serial reference.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.engine import LabelingEngine, ProcessPoolBackend, SlotRing
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
from sharded_contract import PoisonPredictor


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


class TestSlotRing:
    def test_acquire_until_full_then_release_reopens(self):
        ring = SlotRing.create(slots=3, slot_bytes=32)
        try:
            taken = [ring.acquire() for _ in range(3)]
            assert sorted(taken) == [0, 1, 2]
            assert ring.acquire() is None  # full
            ring.release(taken[1])
            assert not ring.held(taken[1])
            assert ring.acquire() == taken[1]
        finally:
            ring.close()
            ring.unlink()

    def test_rotation_hint_spreads_slots(self):
        # Acquire/release cycles should walk the ring, not hammer slot 0.
        ring = SlotRing.create(slots=4, slot_bytes=32)
        try:
            seen = []
            for _ in range(8):
                slot = ring.acquire()
                seen.append(slot)
                ring.release(slot)
            assert seen == [0, 1, 2, 3, 0, 1, 2, 3]
        finally:
            ring.close()
            ring.unlink()

    def test_write_view_round_trip(self):
        ring = SlotRing.create(slots=2, slot_bytes=64)
        try:
            slot = ring.acquire()
            payload = bytes(range(48))
            length = ring.write(slot, payload)
            assert bytes(ring.view(slot, length)) == payload
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_payload_rejected(self):
        ring = SlotRing.create(slots=1, slot_bytes=16)
        try:
            slot = ring.acquire()
            with pytest.raises(ValueError, match="exceeds slot size"):
                ring.write(slot, b"x" * 17)
            with pytest.raises(ValueError, match="byte slot"):
                ring.view(slot, 17)
        finally:
            ring.close()
            ring.unlink()

    def test_second_handle_sees_state_and_payload(self):
        # A same-process attachment (untrack=False, as tests must) reads
        # what the owner wrote, and its release is visible to the owner.
        ring = SlotRing.create(slots=2, slot_bytes=32)
        other = None
        try:
            slot = ring.acquire()
            ring.write(slot, b"hello")
            other = SlotRing.attach(
                ring.name, ring.slots, ring.slot_bytes, untrack=False
            )
            assert other.held(slot)
            assert bytes(other.view(slot, 5)) == b"hello"
            other.release(slot)
            assert not ring.held(slot)
        finally:
            if other is not None:
                other.close()
            ring.close()
            ring.unlink()

    def test_release_after_close_is_noop(self):
        # A teardown racing a late chunk release must not raise.
        ring = SlotRing.create(slots=1, slot_bytes=8)
        slot = ring.acquire()
        ring.close()
        ring.release(slot)  # closed ring: silently ignored
        ring.unlink()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SlotRing.create(slots=0, slot_bytes=8)
        with pytest.raises(ValueError):
            SlotRing.create(slots=1, slot_bytes=0)


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
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            got = self._two_batches_with_deltas(
                zoo, world_config, predictor, backend, items
            )
            transport = backend.chunk_stats["transport"]
        assert_same_traces(got, ref)
        assert transport.get("delta_shm", 0) > 0
        assert transport.get("result_shm", 0) > 0
        assert transport.get("delta_pickle", 0) == 0
        assert transport.get("result_pickle", 0) == 0

    def test_tiny_slots_fall_back_to_pickle_without_breaking_parity(
        self, zoo, world_config, predictor, truth, items
    ):
        # Historical name: nothing is pickled.  Payloads that outgrow a
        # slot cross the executor pipe as the same encoded bytes.
        ref = engine_for(zoo, predictor, world_config, "serial").label_batch(
            items, truth=truth
        )
        with ProcessPoolBackend(max_workers=2, slot_bytes=64) as backend:
            got = self._two_batches_with_deltas(
                zoo, world_config, predictor, backend, items
            )
            transport = backend.chunk_stats["transport"]
        assert_same_traces(got, ref)
        assert transport.get("delta_inline", 0) > 0  # oversized record shard
        assert transport.get("result_inline", 0) > 0  # oversized trace shard
        assert transport.get("delta_shm", 0) == 0
        assert transport.get("result_shm", 0) == 0
        assert not any(key.endswith("pickle") for key in transport)

    def test_failed_jobs_do_not_leak_result_slots(
        self, zoo, world_config, truth, items
    ):
        # A chunk that raises fails the job, but its sibling chunks finish
        # anyway and park their traces in result slots nobody will read.
        # Eight slots, three abandoned per failed job: left held, the
        # ring is full after the third failure and every later result
        # travels inline for the life of the pool.
        poison = PoisonPredictor(len(zoo), poison=items[0].item_id)
        with ProcessPoolBackend(max_workers=2, chunk_size=2) as backend:
            engine = engine_for(zoo, poison, world_config, backend)
            for _ in range(4):
                with pytest.raises(RuntimeError, match="poisoned item"):
                    engine.label_batch(items[:8], truth=truth)
            before = Counter(backend.chunk_stats["transport"])
            clean = engine.label_batch(items[1:9], truth=truth)
            sent = Counter(backend.chunk_stats["transport"]) - before
            assert len(clean) == 8
            assert sent == {"result_shm": 4}
            for ring in (backend._delta_ring, backend._result_ring):
                assert not any(ring.held(slot) for slot in range(ring.slots))

    def test_rings_unlinked_on_close(
        self, zoo, world_config, predictor, truth, items
    ):
        backend = ProcessPoolBackend(max_workers=2)
        with backend:
            engine_for(zoo, predictor, world_config, backend).label_batch(
                items, truth=truth
            )
            names = [backend._delta_ring.name, backend._result_ring.name]
        assert backend._delta_ring is None
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="ring_slots"):
            ProcessPoolBackend(ring_slots=0)
        with pytest.raises(ValueError, match="slot_bytes"):
            ProcessPoolBackend(slot_bytes=0)
