"""Experiment harness integration tests at smoke scale.

Each experiment must run end-to-end, produce the paper-vs-measured fields,
and satisfy the qualitative shape it reproduces.  These are the slowest
tests in the suite (they train agents on the mini world).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import get_scale
from repro.experiments import (
    common,
    fig02_motivation,
    fig04_05_prediction,
    fig06_rules,
    fig07_sequence,
    fig09_theta,
    fig10_deadline,
    fig11_memory,
    fig12_transfer_deadline,
    table01_models,
    table03_overhead,
)
from repro.experiments.common import ExperimentContext
from repro.experiments.runner import EXPERIMENTS, main


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext("smoke")


class TestExperiments:
    def test_table01(self, ctx):
        report = table01_models.run(ctx)
        assert report.measured["n_tasks"] == 10
        assert "Table I" in report.text

    def test_fig02_order(self, ctx):
        report = fig02_motivation.run(ctx, n_items=30)
        m = report.measured
        assert m["optimal_time"] < m["random_time"] < m["no_policy_time"]
        assert 0 < m["optimal_fraction"] < 0.7

    def test_fig04_05_agent_between_optimal_and_random(self, ctx):
        report = fig04_05_prediction.run(
            ctx,
            datasets=("mscoco2017",),
            algos=("dueling_dqn",),
            n_items=30,
        )
        m = report.measured
        # the agent saves something vs random and less than the oracle
        assert m["dueling_models_saved_at_0.8_low"] > 0.0
        assert (
            m["mscoco2017_optimal_models_saved_at_0.8"]
            >= m["mscoco2017_dueling_models_saved_at_0.8"]
        )

    def test_fig06_rules_report(self, ctx):
        report = fig06_rules.run(ctx, n_items=30)
        assert "Table II" in report.text
        assert "rules_models_saved_at_0.8" in report.measured

    def test_fig07_sequence(self, ctx):
        report = fig07_sequence.run(ctx, dataset="mscoco2017", max_steps=5)
        assert "execution sequence" in report.text
        assert 0.0 <= report.measured["recall_after_sequence"] <= 1.0

    def test_fig09_theta_order_moves(self, ctx):
        report = fig09_theta.run(
            ctx, dataset="mscoco2017", thetas=(1.0, 10.0), n_items=25
        )
        m = report.measured
        assert m["order_theta_10"] <= m["order_theta_1"]

    def test_fig10_shape(self, ctx):
        report = fig10_deadline.run(
            ctx, datasets=("mscoco2017",), deadlines=(0.1, 0.3, 0.6), n_items=25
        )
        m = report.measured
        assert m["mscoco2017_improvement_at_0.5s"] > 0.0
        assert 0.0 < m["min_ratio"] <= 1.0

    def test_fig10d_prints_the_ratio_of_each_deadline(self, ctx, monkeypatch):
        curves = {
            "cost_q_greedy": np.array([0.21, 0.5, 0.9]),
            "q_greedy": np.array([0.2, 0.4, 0.8]),
            "random": np.array([0.1, 0.25, 0.6]),
            "optimal_star": np.array([0.5, 0.625, 0.9]),
        }
        monkeypatch.setattr(fig10_deadline, "recall_curves", lambda *a, **k: curves)
        report = fig10_deadline.run(
            ctx, datasets=("mscoco2017",), deadlines=(0.25, 0.5, 1.0), n_items=3
        )
        table = report.text.split("Fig. 10(d)")[1].splitlines()
        rows = [line.split() for line in table[3:6]]
        assert [row[:2] for row in rows] == [
            ["0.25", "0.420"],
            ["0.5", "0.800"],
            ["1", "1.000"],
        ]
        assert report.measured["mscoco2017_ratio"] == pytest.approx(2.22 / 3)
        assert report.measured["min_ratio"] == report.measured["mscoco2017_ratio"]

    @pytest.mark.parametrize(
        "module, kwargs, expected",
        [
            pytest.param(
                fig10_deadline,
                {"datasets": ("mscoco2017",), "deadlines": (0.5,)},
                "@0.5s: -40.4% to -40.4% recall",
                id="fig10",
            ),
            pytest.param(
                fig11_memory,
                {"memory_budgets": (8000.0,), "deadlines": (0.8,)},
                "@0.8s: 8GB -40.4% (paper",
                id="fig11",
            ),
            pytest.param(
                fig12_transfer_deadline,
                {"deadlines": (1.0,)},
                "agent1_improvement_dataset1_at_1s=-40.4%,",
                id="fig12",
            ),
        ],
    )
    def test_summary_signs_a_negative_improvement(
        self, ctx, monkeypatch, module, kwargs, expected
    ):
        monkeypatch.setattr(module, "improvement", lambda base, ours: -0.404)
        report = module.run(ctx, n_items=3, **kwargs)
        assert expected in report.text

    def test_fig11_shape(self, ctx):
        report = fig11_memory.run(
            ctx,
            memory_budgets=(8000.0,),
            deadlines=(0.1, 0.3, 0.8),
            n_items=20,
        )
        assert 0.0 < report.measured["ratio_8gb"] <= 1.0

    def test_table03_overhead(self, ctx):
        report = table03_overhead.run(ctx, n_trials=50)
        m = report.measured
        # agent selection must be far below the fastest model execution
        assert m["selection_ms"] < m["model_ms_low"]


class TestAgentCache:
    def test_paper_scale_trains_once_then_loads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = dataclasses.replace(get_scale("smoke"), name="paper")
        first = ExperimentContext(scale)
        trained = first.agent("mscoco2017")
        (path,) = tmp_path.glob("*.npz")
        assert path.name == (
            f"paper-{scale.world.seed}-mscoco2017-dueling_dqn-"
            f"{scale.train.episodes}ep.npz"
        )

        def no_training(*args, **kwargs):
            raise AssertionError("a cached agent was trained again")

        monkeypatch.setattr(common, "train_agent", no_training)
        loaded = ExperimentContext(scale).agent("mscoco2017")
        rng = np.random.default_rng(0)
        observations = (rng.random((5, len(first.space))) < 0.1).astype(np.float64)
        np.testing.assert_array_equal(
            loaded.q_values(observations), trained.q_values(observations)
        )


class TestRunner:
    def test_registry_covers_all_figures_and_tables(self):
        expected = {
            "table01",
            "fig02",
            "fig04_05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "table03",
            "headline",
        }
        assert set(EXPERIMENTS) == expected

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_runner_single_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "results.md"
        assert main(
            ["--exp", "table01", "--scale", "smoke", "--out", str(out_file)]
        ) == 0
        assert "Table I" in capsys.readouterr().out
        assert out_file.read_text().startswith("\n## table01")
