"""Training loop: convergence signals, END action effect, theta effect."""

import numpy as np
import pytest

from repro.core.reward import RewardConfig
from repro.rl.training import train_agent
from repro.scheduling.qgreedy import AgentPredictor, QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.analysis.metrics import average_cost_curves


class TestTrainingLoop:
    def test_result_bookkeeping(self, trained, train_config):
        assert len(trained.episode_returns) == 250
        assert len(trained.episode_lengths) == 250
        assert trained.total_steps == sum(trained.episode_lengths)
        assert len(trained.losses) > 0

    def test_returns_improve(self, trained):
        """Late-training returns beat early exploration returns."""
        early = float(np.mean(trained.episode_returns[:25]))
        late = float(np.mean(trained.episode_returns[-25:]))
        assert late > early

    def test_smoothed_returns_shape(self, trained):
        smoothed = trained.smoothed_returns(window=20)
        assert len(smoothed) == len(trained.episode_returns) - 19

    def test_trained_agent_beats_random(
        self, trained, truth, test_item_ids, zoo
    ):
        """The core claim at mini scale: agent < random in cost @0.8 recall."""
        predictor = AgentPredictor(trained.agent, len(zoo))
        agent_traces = [
            QGreedyPolicy(predictor).schedule(truth, i) for i in test_item_ids
        ]
        random_traces = [
            QGreedyPolicy(RandomOrderPredictor(seed=5)).schedule(truth, i)
            for i in test_item_ids
        ]
        agent_curve = average_cost_curves("agent", agent_traces)
        random_curve = average_cost_curves("random", random_traces)
        assert agent_curve.at(0.8)[0] < random_curve.at(0.8)[0]
        assert agent_curve.at(0.8)[1] < random_curve.at(0.8)[1]

    @pytest.mark.parametrize("algo", ["dqn", "double_dqn", "deep_sarsa"])
    def test_all_algorithms_train(self, truth, splits, train_config, algo):
        train, _ = splits
        result = train_agent(
            algo,
            truth,
            [i.item_id for i in train][:20],
            config=train_config.with_(episodes=40),
        )
        assert result.total_steps > 0
        assert result.agent.algo == algo

    def test_no_end_action_episodes_run_all_models(
        self, truth, splits, train_config, zoo
    ):
        train, _ = splits
        result = train_agent(
            "dqn",
            truth,
            [i.item_id for i in train][:10],
            config=train_config.with_(episodes=15, use_end_action=False),
        )
        # without END, every episode executes the full zoo
        assert all(length == len(zoo) for length in result.episode_lengths)

    def test_end_action_shortens_episodes(self, truth, splits, train_config, zoo):
        """§IV-B: END lets converged agents stop early."""
        train, _ = splits
        result = train_agent(
            "dueling_dqn",
            truth,
            [i.item_id for i in train],
            config=train_config.with_(episodes=200),
        )
        late_lengths = result.episode_lengths[-40:]
        assert float(np.mean(late_lengths)) < len(zoo)

    def test_deterministic_given_seed(self, truth, splits, train_config):
        train, _ = splits
        ids = [i.item_id for i in train][:15]
        r1 = train_agent("dqn", truth, ids, train_config.with_(episodes=20))
        r2 = train_agent("dqn", truth, ids, train_config.with_(episodes=20))
        assert r1.episode_returns == r2.episode_returns
        obs = np.zeros(r1.agent.obs_dim)
        assert np.allclose(r1.agent.q_values(obs), r2.agent.q_values(obs))


class TestThetaTraining:
    def test_theta_shifts_model_earlier(
        self, truth, splits, train_config, zoo, test_item_ids
    ):
        """§VI-E: raising a model's theta pulls it forward in the order."""
        train, _ = splits
        ids = [i.item_id for i in train]
        target = "mini_face_det"
        target_index = zoo.index_of(target)

        def avg_position(reward_config):
            result = train_agent(
                "dueling_dqn",
                truth,
                ids,
                config=train_config.with_(episodes=250),
                reward_config=reward_config,
            )
            predictor = AgentPredictor(result.agent, len(zoo))
            positions = []
            for item_id in test_item_ids[:25]:
                trace = QGreedyPolicy(predictor).schedule(truth, item_id)
                for pos, e in enumerate(trace.executions, start=1):
                    if e.model_index == target_index:
                        positions.append(pos)
                        break
            return float(np.mean(positions))

        base = avg_position(None)
        boosted = avg_position(RewardConfig(theta={target: 10.0}))
        assert boosted < base
