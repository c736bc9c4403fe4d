"""Extension (§VIII future work): the model-relationship graph policy.

The paper's conclusion calls for fast construction of a model-relationship
graph.  We build it in one counting pass over the training recordings and
run Q-greedy on its predictor (posterior usefulness times each model's
mean useful value).  Expected ordering of policies at 0.8 recall:

    optimal  <  DRL agent  <=  graph  <  rules/random

i.e. the automatically-learned graph beats the handcrafted Table II rules
and approaches the DRL agent, while remaining fully interpretable.
"""

from conftest import run_and_print

from repro.analysis.metrics import average_cost_curves
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentReport
from repro.graph import GraphPredictor, build_relationship_graph
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor
from repro.scheduling.rules import RulePredictor


def _run(ctx) -> ExperimentReport:
    dataset = "mscoco2017"
    truth = ctx.ensure_truth(dataset)
    train, _ = ctx.splits(dataset)
    item_ids = ctx.eval_ids(dataset)
    train_ids = [i.item_id for i in train]
    graph = build_relationship_graph(truth, train_ids)

    predictors = {
        "random": RandomOrderPredictor(seed=2),
        "rules": RulePredictor(seed=2),
        "graph": GraphPredictor(graph, truth, train_ids),
        "dueling_dqn": ctx.predictor(dataset, "dueling_dqn"),
        "optimal": SoloValuePredictor(),
    }
    rows = []
    measured = {}
    for name, predictor in predictors.items():
        policy = QGreedyPolicy(predictor)
        traces = [policy.schedule(truth, i) for i in item_ids]
        curve = average_cost_curves(name, traces)
        models_08 = curve.at(0.8)[0]
        time_08 = curve.at(0.8)[1]
        measured[f"{name}_models_at_0.8"] = models_08
        rows.append((name, f"{models_08:.2f}", f"{time_08:.3f}"))

    table = format_table(
        ("policy", "avg models @0.8", "avg time @0.8 (s)"),
        rows,
        title=f"Model-relationship graph policy ({dataset})",
    )
    edges = graph.strongest_edges(k=6)
    learned = "\n".join(
        f"  {s} -> {t} (lift {l:.2f})" for s, t, l in edges
    )
    return ExperimentReport(
        experiment="graph_policy",
        title="Auto-learned model-relationship graph (§VIII)",
        text=table + "\nstrongest learned relationships:\n" + learned,
        measured=measured,
    )


def test_graph_policy(benchmark):
    report = run_and_print(benchmark, "graph_policy", _run)
    m = report.measured
    # The learned graph must beat handcrafted rules and random...
    assert m["graph_models_at_0.8"] < m["rules_models_at_0.8"]
    assert m["graph_models_at_0.8"] < m["random_models_at_0.8"]
    # ...and no interpretable policy beats the oracle.
    assert m["optimal_models_at_0.8"] <= m["graph_models_at_0.8"]
