"""Full-world (1104-label / 30-model) integration guards.

The smoke suite runs on the mini world; these tests pin the properties of
the full world that the paper's numbers depend on.  They build a small
ground-truth sample, so they cost a couple of seconds, not minutes.
"""

import numpy as np
import pytest

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.labels import build_label_space
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="module")
def full_world():
    config = WorldConfig(vocab_scale="full")
    space = build_label_space("full")
    zoo = build_zoo(config, space)
    items = []
    for dataset in ("mscoco2017", "places365", "mirflickr25"):
        items.extend(generate_dataset(space, config, dataset, 40))
    truth = GroundTruth(zoo, items, config)
    return config, space, zoo, truth


class TestFullWorldCalibration:
    def test_paper_cardinalities(self, full_world):
        _, space, zoo, _ = full_world
        assert len(space) == 1104
        assert len(zoo) == 30
        assert zoo.total_time == pytest.approx(5.16)

    def test_useful_fraction_band(self, full_world):
        """§II shape guard: a meaningful share of executions is waste."""
        _, _, _, truth = full_world
        fraction = truth.useful_execution_fraction()
        assert 0.15 < fraction < 0.60

    def test_optimal_time_fraction_band(self, full_world):
        """The optimal policy must skip at least ~half the compute."""
        _, _, _, truth = full_world
        fraction = truth.optimal_time_fraction()
        assert 0.15 < fraction < 0.50

    def test_optimal_beats_random_by_wide_margin(self, full_world):
        _, _, zoo, truth = full_world
        ids = list(truth.item_ids)[:60]
        optimal_times = []
        random_times = []
        for item_id in ids:
            t_opt = (
                QGreedyPolicy(SoloValuePredictor())
                .schedule(truth, item_id)
                .cost_to_recall(1.0)[1]
            )
            t_rnd = (
                QGreedyPolicy(RandomOrderPredictor(seed=1))
                .schedule(truth, item_id)
                .cost_to_recall(1.0)[1]
            )
            optimal_times.append(t_opt)
            random_times.append(t_rnd)
        assert np.mean(optimal_times) < 0.6 * np.mean(random_times)

    def test_every_task_useful_somewhere(self, full_world):
        """No dead tasks: each task's models emit value on some item."""
        _, _, zoo, truth = full_world
        useful_any = np.zeros(len(zoo), dtype=bool)
        for item_id in truth.item_ids:
            useful_any |= truth.record(item_id).useful_models
        tasks_with_value = {zoo[int(j)].task for j in np.nonzero(useful_any)[0]}
        assert tasks_with_value == {m.task for m in zoo}

    def test_dataset_profiles_visible_in_outputs(self, full_world):
        """Places365 items lean on scene labels; COCO items on objects."""
        _, _, zoo, truth = full_world
        place_indices = [
            j for j, m in enumerate(zoo) if m.task == "place_classification"
        ]
        object_indices = [
            j for j, m in enumerate(zoo) if m.task == "object_detection"
        ]

        def share(dataset, indices):
            totals, parts = 0.0, 0.0
            for item_id in truth.item_ids:
                if not item_id.startswith(dataset):
                    continue
                rec = truth.record(item_id)
                totals += rec.total_value
                parts += sum(rec.solo_values[j] for j in indices)
            return parts / max(totals, 1e-9)

        assert share("places365", place_indices) > share("mscoco2017", place_indices)
        assert share("mscoco2017", object_indices) > share(
            "places365", object_indices
        )

    def test_fig1_output_taxonomy(self, full_world):
        """Fig. 1's three output kinds all occur: useful, junk, nothing."""
        config, _, zoo, truth = full_world
        useful = junk = nothing = 0
        for item_id in list(truth.item_ids)[:40]:
            rec = truth.record(item_id)
            for j in range(len(zoo)):
                output = truth.output(item_id, j)
                if rec.solo_values[j] > 0:
                    useful += 1
                elif output.labels:
                    junk += 1
                else:
                    nothing += 1
        assert useful > 0 and junk > 0 and nothing > 0
