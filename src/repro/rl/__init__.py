"""Deep reinforcement learning stack, written from scratch on numpy.

The paper trains a deep Q-value network (1104-dim observation -> dense
256 ReLU -> 31 actions incl. END) with four schemes: DQN, DoubleDQN,
DuelingDQN and DeepSARSA (§IV-B).  This package provides:

* :mod:`repro.rl.nn` — a minimal dense-network autodiff library (He init,
  ReLU, Adam, Huber loss) sufficient for Q-learning at that scale;
* :mod:`repro.rl.replay` — a uniform ring-buffer replay memory;
* :mod:`repro.rl.agents` — the four agent variants behind one interface;
* :mod:`repro.rl.training` — the training loop, playing the Q-greedy
  episode (:func:`~repro.scheduling.qgreedy.qgreedy_episode`) as the MDP.
"""

from repro.rl.agents import (
    AGENT_REGISTRY,
    DeepSARSAAgent,
    DoubleDQNAgent,
    DQNAgent,
    DuelingDQNAgent,
    QAgent,
    make_agent,
)
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.schedule import EpsilonSchedule
from repro.rl.training import TrainingResult, train_agent

__all__ = [
    "AGENT_REGISTRY",
    "DeepSARSAAgent",
    "DoubleDQNAgent",
    "DQNAgent",
    "DuelingDQNAgent",
    "QAgent",
    "make_agent",
    "ReplayBuffer",
    "Transition",
    "EpsilonSchedule",
    "TrainingResult",
    "train_agent",
]
