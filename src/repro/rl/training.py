"""Agent training loop (Section IV-B) and serialization helpers.

Training follows the paper: episodes over the training split, epsilon-greedy
behaviour with linear decay, experience replay, periodic target-network
syncs, and the END action available so the agent can stop once nothing
valuable remains (which is what makes convergence tractable, §IV-B).

The MDP is the Q-greedy schedule's own episode,
:func:`~repro.scheduling.qgreedy.qgreedy_episode`, played with the agent's
actions: its yielded mask plus END, Eq. (3) on the labels a model adds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.config import TrainConfig
from repro.core.reward import END_REWARD, RewardConfig, reward_for_output
from repro.rl.agents import QAgent, make_agent
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.schedule import EpsilonSchedule
from repro.scheduling.base import advance
from repro.scheduling.qgreedy import qgreedy_episode
from repro.zoo.oracle import GroundTruth


@dataclass
class TrainingResult:
    """A trained agent plus its learning curve."""

    agent: QAgent
    episode_returns: list[float] = field(default_factory=list)
    episode_lengths: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    total_steps: int = 0

    def smoothed_returns(self, window: int = 20) -> np.ndarray:
        """Moving average of episode returns (for convergence checks)."""
        returns = np.asarray(self.episode_returns, dtype=np.float64)
        if len(returns) < window:
            return returns
        kernel = np.ones(window) / window
        return np.convolve(returns, kernel, mode="valid")


def train_agent(
    algo: str,
    truth: GroundTruth,
    train_item_ids: Sequence[str],
    config: TrainConfig | None = None,
    reward_config: RewardConfig | None = None,
) -> TrainingResult:
    """Train one agent on the recorded outputs of the training items.

    Parameters
    ----------
    algo:
        One of ``"dqn"``, ``"double_dqn"``, ``"dueling_dqn"``,
        ``"deep_sarsa"``.
    truth:
        Ground-truth cache covering (at least) the training items.
    train_item_ids:
        The items episodes are sampled from.
    config:
        Training hyper-parameters; defaults to :class:`TrainConfig`.
    reward_config:
        Theta priorities / smoothing for Eq. (3).
    """
    config = config or TrainConfig()
    reward_config = reward_config or RewardConfig()
    if not train_item_ids:
        raise ValueError("training needs at least one item")
    missing = [i for i in train_item_ids if i not in truth]
    if missing:
        raise ValueError(f"items not in ground truth: {missing[:3]}...")
    n_models = len(truth.zoo)
    # END is the action after the last model, when the config offers it.
    end = n_models if config.use_end_action else None
    n_actions = n_models if end is None else n_models + 1
    obs_dim = len(truth.zoo.space)
    thetas = [reward_config.theta_of(model.name) for model in truth.zoo]

    def actions(models: np.ndarray) -> np.ndarray:
        """The episode's startable models, plus END when it is offered."""
        return models if end is None else np.append(models, True)

    agent = make_agent(
        algo,
        obs_dim=obs_dim,
        n_actions=n_actions,
        hidden_size=config.hidden_size,
        learning_rate=config.learning_rate,
        gamma=config.gamma,
        seed=config.seed,
    )
    buffer = ReplayBuffer(
        capacity=config.replay_capacity,
        obs_dim=obs_dim,
        n_actions=n_actions,
        seed=config.seed + 1,
    )
    # Expected total steps: a loose upper bound for the epsilon schedule.
    expected_steps = max(1, config.episodes * (n_models // 2 + 2))
    schedule = EpsilonSchedule(
        config.epsilon_start,
        config.epsilon_end,
        max(1, int(expected_steps * config.epsilon_decay_fraction)),
    )

    result = TrainingResult(agent=agent)
    rng = np.random.default_rng(config.seed + 2)
    global_step = 0

    for _ in range(config.episodes):
        item_id = train_item_ids[int(rng.integers(len(train_item_ids)))]
        episode = qgreedy_episode(truth, item_id)
        request, _ = advance(episode)
        state, models = request
        obs, valid = state.vector.copy(), actions(models)
        episode_return = 0.0
        episode_len = 0
        pending_sarsa = False
        while request is not None:
            epsilon = schedule.value(global_step)
            action = agent.act(obs, valid, epsilon)
            if action == end:
                episode.close()
                request, reward = None, END_REWARD
            else:
                # O'(m, d): the labels this model adds or raises, read
                # before the episode executes it.
                ids, confs = truth.valuable(item_id, action)
                new = confs[confs > state.confidences[ids]]
                request, _ = advance(episode, (action, None))
                reward = reward_for_output(new, thetas[action], reward_config.smoothing)
            done = request is None
            if pending_sarsa:
                # The previous transition's a' is the action just taken.
                buffer.set_last_next_action(action)
            next_valid = np.zeros_like(valid) if done else actions(request[1])
            next_obs = state.vector.copy()
            buffer.push(
                Transition(
                    obs=obs,
                    action=action,
                    reward=reward,
                    next_obs=next_obs,
                    done=done,
                    next_valid=next_valid,
                )
            )
            pending_sarsa = agent.on_policy and not done
            obs, valid = next_obs, next_valid
            episode_return += reward
            episode_len += 1
            global_step += 1

            if (
                len(buffer) >= config.warmup_steps
                and global_step % config.update_every == 0
            ):
                loss = agent.update(buffer.sample(config.batch_size))
                result.losses.append(loss)
            if global_step % config.target_sync_every == 0:
                agent.sync_target()

        result.episode_returns.append(episode_return)
        result.episode_lengths.append(episode_len)

    result.total_steps = global_step
    return result
