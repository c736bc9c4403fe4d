"""Core abstractions over the zoo's recorded outputs: the labeling state,
evaluation (Eq. 1) and reward (Eq. 3).

The outputs themselves (:class:`~repro.zoo.output.ModelOutput`,
:class:`~repro.zoo.output.LabelOutput`) are what the zoo emits and live in
:mod:`repro.zoo.output`; the Fig. 3 loop that labels items is
:class:`~repro.engine.LabelingEngine`.
"""

from repro.core.evaluation import evaluate_subset
from repro.core.reward import RewardConfig, reward_for_output
from repro.core.state import LabelingState

__all__ = [
    "RewardConfig",
    "reward_for_output",
    "evaluate_subset",
    "LabelingState",
]
