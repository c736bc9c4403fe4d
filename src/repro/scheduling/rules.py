"""Handcrafted rule-based scheduling (Table II, §III-B, §VI-C).

Each rule fires when an executed model outputs a matching label and
multiplies the execution probability of every model of a target task by a
fixed factor (2x to promote, 0.5x to demote).  :class:`RulePredictor`
starts each item from uniform model weights, applies the rules fired by
every execution, and samples the next model proportionally to the
resulting weights — the paper's P(Task) mechanism — as a predictor on the
Q-greedy episode.

The ten rules below are the paper's Table II, expressed against our
vocabulary: e.g. *Object Detection outputs "person" -> double the
probability of Pose Estimation models*.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.state import LabelingState
from repro.scheduling.qgreedy import QValuePredictor
from repro.vocab import (
    TASK_ACTION,
    TASK_DOG,
    TASK_EMOTION,
    TASK_FACE,
    TASK_FACE_LANDMARK,
    TASK_GENDER,
    TASK_HAND_LANDMARK,
    TASK_OBJECT,
    TASK_POSE,
    TASK_PLACE,
)


@dataclass(frozen=True)
class Rule:
    """One Table II rule.

    ``trigger(label_name, vocabulary)`` decides whether an output label
    fires the rule; when fired, all models of ``target_task`` get their
    weight multiplied by ``factor``.
    """

    source_task: str
    description: str
    trigger: Callable[[str, object], bool]
    target_task: str
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("rule factor must be positive")


def _is_label(name: str) -> Callable[[str, object], bool]:
    return lambda label, vocab: label == name

def _is_any_pose_keypoint(label: str, vocab) -> bool:
    return label in vocab.task_labels[TASK_POSE]

def _is_wrist_keypoint(label: str, vocab) -> bool:
    return label in vocab.wrist_keypoints

def _is_indoor_place(label: str, vocab) -> bool:
    return label in vocab.indoor_places


#: The paper's ten handcrafted rules (Table II).
HANDCRAFTED_RULES: tuple[Rule, ...] = (
    Rule(TASK_OBJECT, "person => pose estimation x2",
         _is_label("person"), TASK_POSE, 2.0),
    Rule(TASK_OBJECT, "person => gender classification x2",
         _is_label("person"), TASK_GENDER, 2.0),
    Rule(TASK_OBJECT, "dog => dog classification x2",
         _is_label("dog"), TASK_DOG, 2.0),
    Rule(TASK_FACE, "face => face landmark x2",
         _is_label("face"), TASK_FACE_LANDMARK, 2.0),
    Rule(TASK_FACE, "face => emotion classification x2",
         _is_label("face"), TASK_EMOTION, 2.0),
    Rule(TASK_POSE, "body keypoints => action classification x2",
         _is_any_pose_keypoint, TASK_ACTION, 2.0),
    Rule(TASK_POSE, "wrist keypoints => hand landmark x2",
         _is_wrist_keypoint, TASK_HAND_LANDMARK, 2.0),
    # The paper demotes *animal*-object detection and *sport*-action
    # classification indoors; our model-level weights approximate the
    # animal-specialist with the dog classifier and use a soft demotion
    # on action models (only their sport sub-vocabulary is implicated).
    Rule(TASK_PLACE, "indoor place => animal (dog) classification x0.5",
         _is_indoor_place, TASK_DOG, 0.5),
    Rule(TASK_PLACE, "indoor place => sport/action classification x0.7",
         _is_indoor_place, TASK_ACTION, 0.7),
    Rule(TASK_OBJECT, "food objects => action classification x2",
         lambda label, vocab: label in vocab.food_objects, TASK_ACTION, 2.0),
)


class RulePredictor(QValuePredictor):
    """Probability-weighted sampling updated by handcrafted rules.

    On a new state it resets the weights and the fired rules; on every
    call it folds in the models executed since the last call, then draws
    one unexecuted model in proportion to its weight and returns that pick
    as a one-hot row.  It draws from one seeded stream shared by the items
    it schedules, in the order of one ``predict`` per step: that matches
    the former rule-based ordering policy only under ``run_episode``.
    """

    observation_only = False  # reads ``executed`` and draws

    def __init__(self, rules: Sequence[Rule] = HANDCRAFTED_RULES, seed: int = 0):
        self.rules = tuple(rules)
        self._rng = np.random.default_rng(seed)
        self._state: LabelingState | None = None
        self._seen = np.zeros(0, dtype=bool)
        self._fired: set[int] = set()
        #: Current per-model weights of the item being scheduled.
        self.weights = np.ones(0)

    def predict(self, state: LabelingState) -> np.ndarray:
        if state is not self._state:
            self._state = state
            self._seen = np.zeros(len(state.executed), dtype=bool)
            self._fired = set()
            self.weights = np.ones(len(state.executed))
        for model_index in np.flatnonzero(state.executed & ~self._seen):
            self._fire(state, int(model_index))
        self._seen = state.executed.copy()
        remaining = state.remaining
        weights = self.weights[remaining]
        pick = self._rng.choice(len(remaining), p=weights / weights.sum())
        row = np.zeros(len(state.executed))
        row[remaining[pick]] = 1.0
        return row

    def _fire(self, state: LabelingState, model_index: int) -> None:
        """Apply the rules fired by the labels one execution revealed."""
        truth = state.truth
        output = truth.output(state.item_id, model_index)
        vocab = truth.zoo.space.vocabulary
        source_task = truth.zoo[model_index].task
        for label in output.valuable(truth.threshold):
            for rule_index, rule in enumerate(self.rules):
                if rule_index in self._fired:
                    continue  # each rule fires at most once per item
                if rule.source_task != source_task:
                    continue
                if rule.trigger(label.name, vocab):
                    self._fired.add(rule_index)
                    for j, model in enumerate(truth.zoo):
                        if model.task == rule.target_task:
                            self.weights[j] *= rule.factor
