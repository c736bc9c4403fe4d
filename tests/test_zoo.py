"""Model zoo: construction, costs, emission behaviour, determinism."""

import pickle

import pytest

from repro.config import WorldConfig
from repro.zoo.builder import build_zoo
from repro.zoo.costs import FULL_ZOO_SPECS, MINI_ZOO_SPECS, calibrated_times, specs_for_scale
from repro.vocab import ALL_TASKS, TASK_DOG, TASK_FACE, TASK_POSE


class TestZooConstruction:
    def test_full_zoo_is_30_models_10_tasks(self):
        config = WorldConfig(vocab_scale="full")
        zoo = build_zoo(config)
        assert len(zoo) == 30
        assert {m.task for m in zoo} == set(ALL_TASKS)

    def test_full_zoo_total_time_calibrated(self):
        zoo = build_zoo(WorldConfig(vocab_scale="full"))
        assert zoo.total_time == pytest.approx(5.16, abs=1e-9)

    def test_custom_total_time(self):
        zoo = build_zoo(WorldConfig(vocab_scale="full", zoo_total_time=2.0))
        assert zoo.total_time == pytest.approx(2.0, abs=1e-9)

    def test_time_and_memory_ranges(self):
        """Table III: models span ~50-400ms and 500-8000MB."""
        zoo = build_zoo(WorldConfig(vocab_scale="full"))
        times_ms = zoo.times * 1000
        assert times_ms.min() >= 35
        assert times_ms.max() <= 420
        assert zoo.mems.min() >= 500
        assert zoo.mems.max() <= 8000

    def test_mini_zoo_one_model_per_task(self, zoo):
        assert len(zoo) == 10
        assert {m.task for m in zoo} == set(ALL_TASKS)

    def test_lookup_helpers(self, zoo):
        model = zoo[0]
        assert zoo.by_name(model.name) is model
        assert zoo.index_of(model.name) == 0
        assert model.name in zoo
        assert "nonexistent" not in zoo

    def test_cost_arrays_are_built_once_and_read_only(self, zoo):
        for array, attr in ((zoo.times, "time"), (zoo.mems, "mem")):
            assert array.tolist() == [getattr(m, attr) for m in zoo]
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert zoo.times is zoo.times and zoo.mems is zoo.mems
        assert zoo.names is zoo.names
        assert [zoo.index_of(name) for name in zoo.names] == list(range(len(zoo)))
        with pytest.raises(KeyError):
            zoo.index_of("no-such-model")
        clone = pickle.loads(pickle.dumps(zoo))
        assert clone.names == zoo.names
        assert not clone.times.flags.writeable

    def test_models_for_task(self):
        zoo = build_zoo(WorldConfig(vocab_scale="full"))
        assert len(zoo.models_for_task(TASK_POSE)) == 3
        assert len(zoo.models_for_task(TASK_FACE)) == 3
        assert len(zoo.models_for_task(TASK_DOG)) == 3

    def test_specs_for_scale(self):
        assert specs_for_scale("full") is FULL_ZOO_SPECS
        assert specs_for_scale("mini") is MINI_ZOO_SPECS
        with pytest.raises(ValueError):
            specs_for_scale("huge")

    def test_calibration_preserves_ratios(self):
        times = calibrated_times(FULL_ZOO_SPECS, 5.16)
        s0, s1 = FULL_ZOO_SPECS[0], FULL_ZOO_SPECS[1]
        assert times[s0.name] / times[s1.name] == pytest.approx(
            s0.raw_time / s1.raw_time
        )


class TestEmission:
    def test_execution_is_deterministic(self, zoo, dataset):
        item = dataset[0]
        for model in zoo:
            out1 = model.execute(item)
            out2 = model.execute(item)
            assert out1 == out2

    def test_labels_belong_to_model_task(self, zoo, dataset, space):
        for item in dataset[:20]:
            for model in zoo:
                for label in model.execute(item).labels:
                    assert space.task_of(label.label_id) == model.task
                    assert space.name_of(label.label_id) == label.name

    def test_confidences_in_range(self, zoo, dataset):
        for item in dataset[:20]:
            for model in zoo:
                for label in model.execute(item).labels:
                    assert 0.0 < label.confidence < 1.0

    def test_pose_needs_person(self, zoo, dataset):
        pose = zoo.models_for_task(TASK_POSE)[0]
        for item in dataset[:40]:
            output = pose.execute(item)
            if not item.content.has_person:
                assert output.is_empty

    def test_face_detector_fires_on_faces(self, zoo, dataset, world_config):
        face = zoo.models_for_task(TASK_FACE)[0]
        hits = 0
        face_items = 0
        for item in dataset:
            strong_faces = [
                p for p in item.content.persons
                if p.face_visible and p.face_strength > 0.7
            ]
            if strong_faces:
                face_items += 1
                valuable = face.execute(item).valuable(
                    world_config.valuable_confidence
                )
                hits += bool(valuable)
        assert face_items > 0
        assert hits / face_items > 0.7

    def test_dog_classifier_mostly_silent_without_dogs(self, zoo, dataset):
        dog = zoo.models_for_task(TASK_DOG)[0]
        empty = 0
        total = 0
        for item in dataset:
            if item.content.dog_breed is None:
                total += 1
                if dog.execute(item).is_empty:
                    empty += 1
        assert empty / total > 0.8

    def test_junk_outputs_exist(self, zoo, dataset, world_config):
        """Fig. 1's low-confidence outputs must occur in the world."""
        threshold = world_config.valuable_confidence
        junk = 0
        for item in dataset[:60]:
            for model in zoo:
                output = model.execute(item)
                junk += sum(1 for l in output.labels if l.confidence < threshold)
        assert junk > 20

    def test_different_world_seed_changes_outputs(self, space, dataset):
        zoo_a = build_zoo(WorldConfig(vocab_scale="mini", seed=1), space)
        zoo_b = build_zoo(WorldConfig(vocab_scale="mini", seed=2), space)
        diff = 0
        for item in dataset[:20]:
            for ma, mb in zip(zoo_a, zoo_b):
                if ma.execute(item) != mb.execute(item):
                    diff += 1
        assert diff > 0


class TestModelOutput:
    def test_valuable_filtering(self, zoo, dataset, world_config):
        threshold = world_config.valuable_confidence
        for item in dataset[:20]:
            for model in zoo:
                output = model.execute(item)
                picked = output.valuable(threshold)
                assert all(label.confidence >= threshold for label in picked)
                assert picked == tuple(
                    label for label in output.labels if label.confidence >= threshold
                )

    def test_str_rendering(self, zoo, dataset):
        output = zoo[0].execute(dataset[0])
        text = str(output)
        assert zoo[0].name in text
