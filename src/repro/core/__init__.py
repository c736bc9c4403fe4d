"""Core abstractions: outputs, labeling state, evaluation (Eq. 1), reward
(Eq. 3), and the top-level adaptive scheduling framework (Fig. 3).

Submodules are imported lazily to avoid an import cycle with
:mod:`repro.zoo` (the zoo emits :class:`~repro.core.output.ModelOutput`
objects, while evaluation/state consume the zoo's ground-truth cache).
"""

from repro.core.output import LabelOutput, ModelOutput
from repro.core.reward import RewardConfig, reward_for_output

__all__ = [
    "LabelOutput",
    "ModelOutput",
    "RewardConfig",
    "reward_for_output",
    "evaluate_subset",
    "LabelingState",
]

_LAZY = {
    "evaluate_subset": "repro.core.evaluation",
    "LabelingState": "repro.core.state",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
