"""Labeling MDP environment: observations, masking, rewards, episodes."""

import numpy as np
import pytest

from repro.core.reward import RewardConfig, reward_for_output
from repro.rl.env import LabelingEnv


@pytest.fixture()
def env(truth):
    return LabelingEnv(truth, seed=3)


class TestEpisodeLifecycle:
    def test_reset_returns_zero_observation(self, env):
        obs = env.reset()
        assert obs.shape == (env.obs_dim,)
        assert not obs.any()
        assert not env.done

    def test_action_space_includes_end(self, env, zoo):
        assert env.n_actions == len(zoo) + 1
        assert env.end_action == len(zoo)

    def test_no_end_variant(self, truth, zoo):
        env = LabelingEnv(truth, use_end_action=False)
        assert env.n_actions == len(zoo)
        env.reset()
        assert len(env.valid_action_mask()) == len(zoo)

    def test_step_before_reset_raises(self, truth):
        env = LabelingEnv(truth)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_end_action_terminates(self, env):
        env.reset()
        obs, reward, done, info = env.step(env.end_action)
        assert done and reward == 0.0 and info["end"]
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_all_models_terminates(self, env, zoo):
        env.reset()
        done = False
        for j in range(len(zoo)):
            _, _, done, _ = env.step(j)
        assert done
        assert env.state.all_executed

    def test_repeat_execution_rejected(self, env):
        env.reset()
        env.step(0)
        with pytest.raises(ValueError, match="already executed"):
            env.step(0)

    def test_out_of_range_action(self, env):
        env.reset()
        with pytest.raises(ValueError):
            env.step(99)

    def test_deterministic_reset_by_item(self, env, test_item_ids):
        env.reset(test_item_ids[0])
        assert env.state.item_id == test_item_ids[0]


class TestMasking:
    def test_mask_shrinks_with_execution(self, env, zoo):
        env.reset()
        mask0 = env.valid_action_mask()
        assert mask0[: len(zoo)].all() and mask0[env.end_action]
        env.step(4)
        mask1 = env.valid_action_mask()
        assert not mask1[4]
        assert mask1.sum() == mask0.sum() - 1

    def test_end_always_valid(self, env, zoo):
        env.reset()
        for j in range(len(zoo) // 2):
            env.step(j)
        assert env.valid_action_mask()[env.end_action]


class TestRewards:
    def test_reward_matches_equation3(self, truth, zoo):
        env = LabelingEnv(truth, seed=0)
        obs = env.reset()
        for j in range(len(zoo)):
            confs_before = env.state.confidences.copy()
            _, reward, _, _ = env.step(j)
            # recompute expected from the state delta
            ids, confs = truth.valuable(env.state.item_id, j)
            gains = np.maximum(confs - confs_before[ids], 0.0)
            new_confs = confs[gains > 0]
            assert reward == pytest.approx(reward_for_output(new_confs))

    def test_duplicate_labels_get_punished(self, truth, zoo, test_item_ids):
        """Re-covering already-output labels yields the -1 punishment."""
        env = LabelingEnv(truth, seed=0)
        punished = 0
        for item_id in test_item_ids:
            env.reset(item_id)
            # execute everything; at least the useless models are punished
            for j in range(len(zoo)):
                _, reward, _, _ = env.step(j)
                if reward == -1.0:
                    punished += 1
        assert punished > 0

    def test_theta_raises_reward(self, truth, zoo, test_item_ids):
        target = zoo[0].name
        base_env = LabelingEnv(truth, seed=0)
        theta_env = LabelingEnv(
            truth, reward_config=RewardConfig(theta={target: 10.0}), seed=0
        )
        diffs = 0
        for item_id in test_item_ids[:20]:
            base_env.reset(item_id)
            theta_env.reset(item_id)
            _, r_base, _, _ = base_env.step(0)
            _, r_theta, _, _ = theta_env.step(0)
            if r_base > 0:
                assert r_theta > r_base
                diffs += 1
        assert diffs > 0

    def test_info_fields(self, env):
        env.reset()
        _, _, _, info = env.step(0)
        assert set(info) >= {"model", "new_labels", "recall", "value"}

    def test_recall_reaches_one_after_all(self, env, zoo):
        env.reset()
        for j in range(len(zoo)):
            _, _, _, info = env.step(j)
        assert info["recall"] == pytest.approx(1.0)


class TestValidation:
    def test_empty_item_list_rejected(self, truth):
        with pytest.raises(ValueError):
            LabelingEnv(truth, item_ids=[])

    def test_unknown_items_rejected(self, truth):
        with pytest.raises(ValueError, match="not in ground truth"):
            LabelingEnv(truth, item_ids=["nope/000001"])
