"""GroundTruth cache: record/replay invariants and aggregate statistics."""

import numpy as np
import pytest

from repro.zoo.oracle import GroundTruth


class TestRecords:
    def test_every_item_recorded(self, truth, dataset):
        assert len(truth) == len(dataset)
        for item in dataset:
            assert item.item_id in truth

    def test_outputs_match_direct_execution(self, truth, zoo, dataset):
        for item in dataset[:15]:
            for j, model in enumerate(zoo):
                assert truth.output(item.item_id, j) == model.execute(item)

    def test_solo_values_match_valuable_sums(self, truth, zoo, dataset):
        for item in dataset[:25]:
            solo = truth.solo_values(item.item_id)
            for j in range(len(zoo)):
                ids, confs = truth.valuable(item.item_id, j)
                assert solo[j] == pytest.approx(confs.sum())
                assert len(ids) == len(confs)

    def test_total_value_is_max_confidence_union(self, truth, zoo, dataset):
        for item in dataset[:25]:
            rec = truth.record(item.item_id)
            best = np.zeros(len(zoo.space))
            for j in range(len(zoo)):
                ids, confs = truth.valuable(item.item_id, j)
                if len(ids):
                    np.maximum.at(best, ids, confs)
            assert rec.total_value == pytest.approx(best.sum())
            assert np.allclose(rec.best_confidence, best)

    def test_total_value_at_least_best_solo(self, truth, dataset):
        for item in dataset[:25]:
            rec = truth.record(item.item_id)
            assert rec.total_value >= rec.solo_values.max() - 1e-9

    def test_useful_models_mask(self, truth, dataset):
        rec = truth.record(dataset[0].item_id)
        assert (rec.useful_models == (rec.solo_values > 0)).all()

    def test_add_items_idempotent(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, dataset[:5], world_config)
        before = gt.record(dataset[0].item_id)
        gt.add_items(dataset[:5])
        assert gt.record(dataset[0].item_id) is before
        assert len(gt) == 5

    def test_incremental_addition(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, [], world_config)
        assert len(gt) == 0
        gt.add_items(dataset[:3])
        assert len(gt) == 3
        gt.add_items(dataset[3:6])
        assert len(gt) == 6

    def test_add_items_returns_newly_recorded_ids(
        self, zoo, dataset, world_config
    ):
        gt = GroundTruth(zoo, dataset[:2], world_config)
        added = gt.add_items(dataset[:4])
        assert added == [item.item_id for item in dataset[2:4]]
        assert gt.add_items(dataset[:4]) == []


class TestBatchRecording:
    def test_record_batch_returns_input_ordered_records(
        self, zoo, dataset, world_config
    ):
        gt = GroundTruth(zoo, [], world_config)
        records = gt.record_batch(dataset[:5])
        assert [r.item.item_id for r in records] == [
            item.item_id for item in dataset[:5]
        ]
        assert len(gt) == 5

    def test_record_batch_reuses_existing_records(
        self, zoo, dataset, world_config
    ):
        gt = GroundTruth(zoo, dataset[:3], world_config)
        before = gt.record(dataset[1].item_id)
        records = gt.record_batch(dataset[:3])
        assert records[1] is before


class TestEviction:
    def test_release_drops_record(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, dataset[:3], world_config)
        assert gt.release(dataset[0].item_id) is True
        assert dataset[0].item_id not in gt
        assert len(gt) == 2

    def test_release_missing_is_noop(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, dataset[:1], world_config)
        assert gt.release("no-such-item") is False
        assert len(gt) == 1

    def test_release_many_counts_presence(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, dataset[:4], world_config)
        ids = [item.item_id for item in dataset[:4]]
        assert gt.release_many(ids[:2] + ["ghost"]) == 2
        assert len(gt) == 2

    def test_released_item_can_be_rerecorded(self, zoo, dataset, world_config):
        """Record/release/re-record round-trips to identical outputs."""
        gt = GroundTruth(zoo, dataset[:1], world_config)
        item_id = dataset[0].item_id
        before = gt.output(item_id, 0)
        gt.release(item_id)
        gt.add_items(dataset[:1])
        assert gt.output(item_id, 0) == before

    def test_holds_free_engine_records_only(self, zoo, dataset, world_config):
        gt = GroundTruth(zoo, dataset[:1], world_config)
        ids = [item.item_id for item in dataset[:4]]
        first = gt.hold(dataset[:3])  # the caller's record is not held
        second = gt.hold(dataset[1:4])  # 1 and 2 are held by both jobs
        assert (first, second) == (ids[1:3], ids[1:4])
        assert gt.unhold(first) == 0
        assert gt.unhold(second) == 3
        assert gt.item_ids == (ids[0],)


class TestAggregates:
    def test_useful_fraction_in_unit_interval(self, truth):
        fraction = truth.useful_execution_fraction()
        assert 0.0 < fraction < 1.0

    def test_optimal_fraction_below_one(self, truth):
        """The §II shape: the optimal policy skips real work."""
        fraction = truth.optimal_time_fraction()
        assert 0.0 < fraction < 0.7

    def test_empty_truth_aggregates(self, zoo, world_config):
        gt = GroundTruth(zoo, [], world_config)
        assert gt.useful_execution_fraction() == 0.0
        assert gt.optimal_time_fraction() == 0.0
