"""The recording core: batch recording == per-item model execution.

One differential property covers what the columnar record must never
change: however a set of items is batched, ordered, repeated, released and
re-recorded, every ``(model, item)`` cell holds exactly what
``SimulatedModel.execute`` returns for it, and the derived arrays follow
from those emissions alone.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.zoo.oracle import GroundTruth
from repro.zoo.record import ItemRecord, record_items

POOL = 24

#: A sequence of batches over a small item pool: any split, any order,
#: duplicates within and across batches.
batches = st.lists(
    st.lists(st.integers(0, POOL - 1), min_size=0, max_size=8),
    min_size=1,
    max_size=5,
)


def assert_same_record(got: ItemRecord, want: ItemRecord) -> None:
    assert got.item.item_id == want.item.item_id
    assert got.n_labels == want.n_labels
    for name in ("offsets", "ids", "confs", "valuable"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_matches_execution(truth: GroundTruth, item) -> None:
    record = truth.record(item.item_id)
    best = np.zeros(len(truth.zoo.space))
    for j, model in enumerate(truth.zoo):
        output = model.execute(item)
        assert truth.output(item.item_id, j) == output
        picked = output.valuable(truth.threshold)
        ids = np.asarray([label.label_id for label in picked], dtype=np.int64)
        confs = np.asarray([label.confidence for label in picked], dtype=np.float64)
        got_ids, got_confs = truth.valuable(item.item_id, j)
        assert got_ids.tolist() == ids.tolist()
        assert got_confs.tolist() == confs.tolist()
        assert record.valuable_pairs[j][0] is got_ids
        assert record.valuable_pairs[j][1] is got_confs
        assert truth.valuable_labels(item.item_id, j) == output.valuable(
            truth.threshold
        )
        assert record.solo_values[j] == float(confs.sum())
        if len(ids):
            np.maximum.at(best, ids, confs)
    assert record.best_confidence.tobytes() == best.tobytes()
    assert record.total_value == float(best.sum())
    assert truth.total_value(item.item_id) == record.total_value
    assert (record.useful_models == (record.solo_values > 0)).all()


class TestBatchRecordingIsPerItemExecution:
    @given(batches=batches)
    @settings(max_examples=25, deadline=None)
    def test_any_split_order_and_duplicates(self, zoo, dataset, world_config, batches):
        truth = GroundTruth(zoo, [], world_config)
        seen: dict[int, None] = {}
        for batch in batches:
            items = [dataset[i] for i in batch]
            fresh = [i for i in dict.fromkeys(batch) if i not in seen]
            assert truth.add_items(iter(items)) == [dataset[i].item_id for i in fresh]
            records = truth.record_batch(items)
            assert [r.item.item_id for r in records] == [i.item_id for i in items]
            seen.update(dict.fromkeys(fresh))
        assert list(truth.item_ids) == [dataset[i].item_id for i in seen]
        for i in seen:
            [alone] = record_items(zoo, [dataset[i]], truth.threshold)
            assert_same_record(truth.record(dataset[i].item_id), alone)
            assert_matches_execution(truth, dataset[i])

    @given(picked=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_release_then_rerecord_reproduces_the_record(
        self, zoo, dataset, world_config, picked
    ):
        items = [dataset[i] for i in picked]
        truth = GroundTruth(zoo, items, world_config)
        before = {item.item_id: truth.record(item.item_id) for item in items}
        released = {item.item_id for item in items[::2]}
        assert truth.release_many(released) == len(released)
        assert truth.add_items(items) == [
            item_id for item_id in before if item_id in released
        ]
        for item_id, record in before.items():
            again = truth.record(item_id)
            assert (again is record) == (item_id not in released)
            assert_same_record(again, record)


class TestRecordObject:
    def test_derived_fields_are_cached_not_pickled(self, truth, dataset):
        record = truth.record(dataset[0].item_id)
        assert record.solo_values is record.solo_values
        assert record.valuable_pairs is record.valuable_pairs
        assert not record.solo_values.flags.writeable
        assert not record.best_confidence.flags.writeable
        truth.valuable_labels(record.item.item_id, 0)
        clone = pickle.loads(pickle.dumps(record))
        assert set(vars(clone)) == {f.name for f in dataclasses.fields(clone)}
        assert_same_record(clone, record)
        assert clone.total_value == record.total_value

    def test_emissions_slice_the_columns(self, truth, zoo, dataset):
        record = truth.record(dataset[3].item_id)
        assert record.n_models == len(zoo)
        total = 0
        for j in range(len(zoo)):
            ids, confs = record.emissions(j)
            assert len(ids) == len(confs)
            total += len(ids)
        assert total == len(record.ids) == record.offsets[-1]
        assert (record.valuable == (record.confs >= truth.threshold)).all()
