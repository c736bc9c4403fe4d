"""The labeling MDP as training plays it: rewards, END, masks, inputs.

A scripted agent (``make_agent`` patched in :mod:`repro.rl.training`)
picks the actions, and a recording ``ReplayBuffer.push`` captures every
transition, so each check reads exactly what the learner would see.
Expected rewards are recomputed from the recorded ground truth here,
independently of :class:`~repro.core.state.LabelingState`.
"""

import numpy as np
import pytest

import repro.rl.training as training
from repro.core.reward import RewardConfig, reward_for_output
from repro.rl.replay import ReplayBuffer

#: Small enough that no update runs and the replay stays tiny.
QUIET = dict(warmup_steps=10**6, replay_capacity=256)


class ScriptedAgent:
    """Plays ``choose(step, valid)``; records the masks it was offered."""

    on_policy = False

    def __init__(self, choose):
        self.choose = choose
        self.offered: list[np.ndarray] = []

    def act(self, obs, valid, epsilon):
        self.offered.append(valid.copy())
        return self.choose(len(self.offered) - 1, valid)

    def update(self, batch):  # pragma: no cover - QUIET never updates
        return 0.0

    def sync_target(self):
        pass


def first_model(step, valid):
    """The lowest-index model still valid (never END while one remains)."""
    return int(np.flatnonzero(valid)[0])


@pytest.fixture()
def play(monkeypatch, truth, train_config):
    """``play(ids, choose, ...)`` -> (pushed transitions, agent, result)."""

    def run(ids, choose, episodes=1, reward_config=None, **overrides):
        agent = ScriptedAgent(choose)
        pushed = []
        push = ReplayBuffer.push

        def record(buffer, transition):
            pushed.append(transition)
            push(buffer, transition)

        monkeypatch.setattr(training, "make_agent", lambda *a, **k: agent)
        monkeypatch.setattr(ReplayBuffer, "push", record)
        config = train_config.with_(episodes=episodes, **QUIET, **overrides)
        result = training.train_agent("dqn", truth, ids, config, reward_config)
        return pushed, agent, result

    return run


def expected_rewards(truth, item_id, actions, reward_config):
    """Eq. (3) on each step's state delta, from the recorded outputs."""
    best = np.zeros(len(truth.zoo.space))
    rewards = []
    for action in actions:
        ids, confs = truth.valuable(item_id, action)
        gains = np.maximum(confs - best[ids], 0.0)
        theta = reward_config.theta_of(truth.zoo[action].name)
        rewards.append(
            reward_for_output(confs[gains > 0], theta, reward_config.smoothing)
        )
        np.maximum.at(best, ids, confs)
    return rewards


class TestRewards:
    @pytest.mark.parametrize(
        "reward_config",
        [
            RewardConfig(),
            RewardConfig(theta={"mini_face_det": 10.0}),
            RewardConfig(smoothing="mean"),
            RewardConfig(theta={"mini_face_det": 3.0}, smoothing="mean"),
        ],
        ids=["log", "theta", "mean", "theta_mean"],
    )
    def test_reward_is_equation3_on_the_state_delta(
        self, play, truth, zoo, test_item_ids, reward_config
    ):
        for item_id in test_item_ids[:8]:
            pushed, _, _ = play([item_id], first_model, reward_config=reward_config)
            actions = [t.action for t in pushed]
            assert actions == list(range(len(zoo)))
            assert [t.reward for t in pushed] == pytest.approx(
                expected_rewards(truth, item_id, actions, reward_config)
            )

    def test_recovered_labels_are_punished(self, play, truth, test_item_ids):
        punished = 0
        for item_id in test_item_ids[:10]:
            pushed, _, _ = play([item_id], first_model)
            best = np.zeros(len(truth.zoo.space))
            for t in pushed:
                ids, confs = truth.valuable(item_id, t.action)
                adds_nothing = bool((confs <= best[ids]).all())
                assert (t.reward == -1.0) == adds_nothing
                punished += adds_nothing
                np.maximum.at(best, ids, confs)
        assert punished > 0

    def test_theta_raises_positive_reward(self, play, zoo, test_item_ids):
        boosted = RewardConfig(theta={zoo[0].name: 10.0})

        def end_after_one(step, valid):
            return 0 if step == 0 else len(zoo)

        raised = 0
        for item_id in test_item_ids[:20]:
            base, _, _ = play([item_id], end_after_one)
            theta, _, _ = play([item_id], end_after_one, reward_config=boosted)
            assert base[0].action == theta[0].action == 0
            if base[0].reward > 0:
                assert theta[0].reward > base[0].reward
                raised += 1
        assert raised > 0


class TestEndAndMasks:
    def test_end_closes_the_episode_with_zero_reward(self, play, zoo, splits):
        end = len(zoo)
        ids = [item.item_id for item in splits[0]][:5]
        pushed, _, result = play(ids, lambda step, valid: end, episodes=6)
        assert result.episode_lengths == [1] * 6
        for t in pushed:
            assert t.action == end and t.reward == 0.0 and t.done
            assert t.next_valid.shape == (end + 1,) and not t.next_valid.any()
            assert np.array_equal(t.next_obs, t.obs)

    def test_end_after_some_models(self, play, zoo, test_item_ids):
        end = len(zoo)

        def choose(step, valid):
            return first_model(step, valid) if step < 3 else end

        pushed, _, result = play(test_item_ids[:1], choose)
        assert result.episode_lengths == [4]
        assert [t.done for t in pushed] == [False, False, False, True]
        assert pushed[-1].reward == 0.0 and not pushed[-1].next_valid.any()

    def test_next_valid_drops_the_executed_model_and_keeps_end(
        self, play, zoo, test_item_ids
    ):
        end = len(zoo)
        order = list(reversed(range(len(zoo))))
        pushed, agent, _ = play(test_item_ids[:1], lambda step, valid: order[step])
        assert agent.offered[0].all()
        for step, t in enumerate(pushed[:-1]):
            expected = agent.offered[step].copy()
            expected[t.action] = False
            assert np.array_equal(t.next_valid, expected)
            assert np.array_equal(t.next_valid, agent.offered[step + 1])
            assert t.next_valid[end] and not t.done
        # The zoo is exhausted: the last step is terminal with no valid action.
        assert pushed[-1].done and not pushed[-1].next_valid.any()


class TestInputs:
    def test_empty_item_list_rejected(self, truth, train_config):
        with pytest.raises(ValueError, match="at least one item"):
            training.train_agent("dqn", truth, [], train_config)

    def test_unknown_items_rejected(self, truth, train_config):
        with pytest.raises(ValueError, match="not in ground truth"):
            training.train_agent("dqn", truth, ["nope/000001"], train_config)

    def test_repeat_execution_rejected(self, play, test_item_ids):
        with pytest.raises(ValueError, match="already executed"):
            play(test_item_ids[:1], lambda step, valid: 0)
