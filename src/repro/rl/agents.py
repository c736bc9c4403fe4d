"""The four Q-value agents the paper trains (§IV-B, §VI-B).

All share the same Q-network architecture and differ only in the bootstrap
target:

* **DQN** — ``r + gamma * max_a Q_target(s', a)``
* **DoubleDQN** — online net picks a*, target net evaluates it.
* **DuelingDQN** — DQN target on a dueling V/A network (the paper's best).
* **DeepSARSA** — on-policy: ``r + gamma * Q_target(s', a')`` where a' is
  the action the behaviour policy actually took next.

Invalid actions (already-executed models) are masked to ``-inf`` both when
acting and when computing bootstrap maxima, which is required for the
labeling MDP's shrinking action space.
"""

from __future__ import annotations

import numpy as np

from repro.rl.nn.loss import huber_loss
from repro.rl.nn.net import DuelingQNetwork, MLPQNetwork, QNetwork
from repro.rl.nn.opt import Adam
from repro.rl.replay import Batch

_NEG_INF = -1e18


def masked_argmax(q: np.ndarray, valid: np.ndarray) -> int:
    """Argmax over valid actions only."""
    if not valid.any():
        raise ValueError("no valid actions")
    masked = np.where(valid, q, _NEG_INF)
    return int(np.argmax(masked))


class QAgent:
    """Base class: epsilon-greedy acting + TD learning on a Q-network."""

    #: Registry name, set by subclasses.
    algo = "base"
    #: Whether the agent is on-policy (needs a' in the replay batch).
    on_policy = False

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int = 256,
        learning_rate: float = 1e-3,
        gamma: float = 0.95,
        seed: int = 0,
    ):
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        #: Kept so the agent can be rebuilt from (algo, dims, state_dict) in
        #: another process — the multi-process backend's snapshot path.
        self.hidden_size = hidden_size
        self.gamma = gamma
        self._rng = np.random.default_rng(seed)
        net_rng = np.random.default_rng(seed + 1)
        self.online = self._build_network(obs_dim, n_actions, hidden_size, net_rng)
        self.target = self._build_network(obs_dim, n_actions, hidden_size, net_rng)
        self.target.copy_from(self.online)
        self.optimizer = Adam(lr=learning_rate)
        self.train_steps = 0

    # -- subclass hooks ------------------------------------------------------

    def _build_network(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ) -> QNetwork:
        return MLPQNetwork(obs_dim, n_actions, hidden_size, rng)

    def _bootstrap_values(self, batch: Batch) -> np.ndarray:
        """Value of the next state per the agent's target rule."""
        q_next_target = self.target.forward(batch.next_obs, train=False)
        masked = np.where(batch.next_valids, q_next_target, _NEG_INF)
        best = masked.max(axis=1)
        # A next state with no valid action is terminal by construction.
        best = np.where(batch.next_valids.any(axis=1), best, 0.0)
        return best

    # -- acting ---------------------------------------------------------------

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """Online-network Q values for one observation or a ``(B, obs_dim)``
        batch (see :meth:`QNetwork.q_values`).  Acting and every predictor
        go through here; the bootstrap targets use the dense ``forward``."""
        return self.online.q_values(obs)

    def act(self, obs: np.ndarray, valid: np.ndarray, epsilon: float = 0.0) -> int:
        """Epsilon-greedy action among valid actions."""
        if epsilon > 0.0 and self._rng.random() < epsilon:
            choices = np.nonzero(valid)[0]
            return int(choices[self._rng.integers(len(choices))])
        return masked_argmax(self.q_values(obs), valid)

    # -- learning ----------------------------------------------------------------

    def update(self, batch: Batch) -> float:
        """One TD step on a minibatch; returns the Huber loss."""
        bootstrap = self._bootstrap_values(batch)
        targets_for_actions = batch.rewards + self.gamma * np.where(
            batch.dones, 0.0, bootstrap
        )
        q = self.online.forward(batch.obs, train=True)
        rows = np.arange(len(batch))
        pred = q[rows, batch.actions]
        loss, grad_pred = huber_loss(pred, targets_for_actions)
        grad_q = np.zeros_like(q)
        grad_q[rows, batch.actions] = grad_pred
        self.online.zero_grad()
        self.online.backward(grad_q)
        self.optimizer.step(self.online.params(), self.online.grads())
        self.train_steps += 1
        return loss

    def sync_target(self) -> None:
        self.target.copy_from(self.online)

    # -- serialization --------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.online.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.online.load_state_dict(state)
        self.target.copy_from(self.online)

    def save(self, path) -> None:
        """Save weights to an .npz file."""
        np.savez(path, algo=np.asarray(self.algo), **self.state_dict())

    def load(self, path) -> None:
        with np.load(path, allow_pickle=False) as data:
            state = {k: data[k] for k in data.files if k.startswith("p")}
        self.load_state_dict(state)


class DQNAgent(QAgent):
    """Original deep Q-network (Mnih et al.)."""

    algo = "dqn"


class DoubleDQNAgent(QAgent):
    """Double DQN (van Hasselt et al.): decorrelates selection/evaluation."""

    algo = "double_dqn"

    def _bootstrap_values(self, batch: Batch) -> np.ndarray:
        q_next_online = self.online.forward(batch.next_obs, train=False)
        masked_online = np.where(batch.next_valids, q_next_online, _NEG_INF)
        best_actions = masked_online.argmax(axis=1)
        q_next_target = self.target.forward(batch.next_obs, train=False)
        rows = np.arange(len(batch))
        values = q_next_target[rows, best_actions]
        return np.where(batch.next_valids.any(axis=1), values, 0.0)


class DuelingDQNAgent(QAgent):
    """Dueling network architecture (Wang et al.) with the DQN target."""

    algo = "dueling_dqn"

    def _build_network(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ) -> QNetwork:
        return DuelingQNetwork(obs_dim, n_actions, hidden_size, rng)


class DeepSARSAAgent(QAgent):
    """Deep SARSA: on-policy bootstrap from the action actually taken."""

    algo = "deep_sarsa"
    on_policy = True

    def _bootstrap_values(self, batch: Batch) -> np.ndarray:
        q_next = self.target.forward(batch.next_obs, train=False)
        rows = np.arange(len(batch))
        actions = batch.next_actions
        # Transitions without a recorded next action (episode end) get 0;
        # they are masked by `dones` anyway.
        safe = np.where(actions >= 0, actions, 0)
        values = q_next[rows, safe]
        return np.where(actions >= 0, values, 0.0)


class DoubleDuelingDQNAgent(DoubleDQNAgent):
    """Double-DQN target rule on a dueling network.

    Not evaluated in the paper, but §IV-B notes the framework works with
    "any Q-value network-based DRL approach"; this combination is the
    natural next rung and is exercised by the extension tests.
    """

    algo = "double_dueling_dqn"

    def _build_network(
        self,
        obs_dim: int,
        n_actions: int,
        hidden_size: int,
        rng: np.random.Generator,
    ) -> QNetwork:
        return DuelingQNetwork(obs_dim, n_actions, hidden_size, rng)


#: Name -> agent class, for config-driven construction.
AGENT_REGISTRY: dict[str, type[QAgent]] = {
    cls.algo: cls
    for cls in (
        DQNAgent,
        DoubleDQNAgent,
        DuelingDQNAgent,
        DeepSARSAAgent,
        DoubleDuelingDQNAgent,
    )
}


def make_agent(algo: str, obs_dim: int, n_actions: int, **kwargs) -> QAgent:
    """Construct an agent by registry name ("dqn", "double_dqn", ...)."""
    try:
        cls = AGENT_REGISTRY[algo]
    except KeyError:
        raise ValueError(
            f"unknown agent algo {algo!r}; choose from {sorted(AGENT_REGISTRY)}"
        ) from None
    return cls(obs_dim, n_actions, **kwargs)
