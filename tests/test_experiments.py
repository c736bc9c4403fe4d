"""Experiment harness integration tests at smoke scale.

Each experiment must run end-to-end, produce the paper-vs-measured fields,
and satisfy the qualitative shape it reproduces.  These are the slowest
tests in the suite (they train agents on the mini world).
"""

import pytest

from repro.experiments import (
    fig02_motivation,
    fig04_05_prediction,
    fig06_rules,
    fig07_sequence,
    fig09_theta,
    fig10_deadline,
    fig11_memory,
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

    def test_fig10_summary_signs_a_negative_improvement(self, ctx, monkeypatch):
        monkeypatch.setattr(fig10_deadline, "improvement", lambda base, ours: -0.404)
        report = fig10_deadline.run(
            ctx, datasets=("mscoco2017",), deadlines=(0.5,), n_items=3
        )
        assert "@0.5s: -40.4% to -40.4% recall" in report.text

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
