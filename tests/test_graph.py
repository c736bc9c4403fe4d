"""Model-relationship graph (§VIII future work): construction + predictor."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.metrics import average_cost_curves
from repro.graph import GraphPredictor, build_relationship_graph
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor


@pytest.fixture(scope="module")
def graph(truth, splits):
    train, _ = splits
    return build_relationship_graph(truth, [i.item_id for i in train])


class TestConstruction:
    def test_base_rates_are_probabilities(self, graph):
        assert (graph.base_rate >= 0).all() and (graph.base_rate <= 1).all()

    def test_conditionals_are_probabilities(self, graph):
        for matrix in (graph.cond_useful, graph.cond_useless):
            assert (matrix >= 0).all() and (matrix <= 1 + 1e-12).all()

    def test_self_conditional_is_one(self, graph, truth):
        """P(i useful | i useful) = 1 whenever i is ever useful."""
        for i in range(graph.n_models):
            if graph.base_rate[i] > 0:
                assert graph.cond_useful[i, i] == pytest.approx(1.0)

    def test_base_rate_matches_truth(self, graph, truth, splits):
        train, _ = splits
        ids = [i.item_id for i in train]
        expected = np.mean(
            [truth.record(i).useful_models for i in ids], axis=0
        )
        assert np.allclose(graph.base_rate, expected)

    def test_person_chain_has_positive_lift(self, graph, truth, zoo):
        """Pose usefulness must be lifted by face/gender usefulness —
        they share the person-presence latent cause."""
        face = zoo.index_of("mini_face_det")
        pose = zoo.index_of("mini_pose")
        assert graph.lift(face, pose) > 1.1

    def test_unrelated_models_near_independent(self, graph, zoo):
        place = zoo.index_of("mini_place")
        dog = zoo.index_of("mini_dog")
        # place classification succeeds almost everywhere -> little signal
        assert 0.3 < graph.lift(place, dog) < 3.0

    def test_empty_items_rejected(self, truth):
        with pytest.raises(ValueError):
            build_relationship_graph(truth, [])

    def test_support_counted(self, graph, splits):
        train, _ = splits
        assert graph.support == len(train)


class TestNetworkxExport:
    def test_export_nodes_and_edges(self, graph):
        g = graph.to_networkx(min_lift_ratio=1.3)
        assert isinstance(g, nx.DiGraph)
        assert set(g.nodes) == set(graph.model_names)
        for _, _, data in g.edges(data=True):
            lift = data["lift"]
            assert lift >= 1.3 or lift <= 1 / 1.3

    def test_bad_ratio_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.to_networkx(min_lift_ratio=0.5)

    def test_strongest_edges_sorted(self, graph):
        edges = graph.strongest_edges(k=5)
        lifts = [e[2] for e in edges]
        assert lifts == sorted(lifts, reverse=True)


class TestPosterior:
    def test_no_evidence_returns_base_rate(self, graph):
        assert np.allclose(
            graph.expected_usefulness([], []), graph.base_rate
        )

    def test_useful_evidence_raises_correlated_model(self, graph, zoo):
        face = zoo.index_of("mini_face_det")
        pose = zoo.index_of("mini_pose")
        posterior = graph.expected_usefulness([face], [])
        assert posterior[pose] > graph.base_rate[pose]

    def test_useless_evidence_lowers_correlated_model(self, graph, zoo):
        face = zoo.index_of("mini_face_det")
        emotion = zoo.index_of("mini_emotion")
        posterior = graph.expected_usefulness([], [face])
        assert posterior[emotion] <= graph.base_rate[emotion] + 1e-9


@pytest.fixture(scope="module")
def graph_qgreedy(graph, truth, splits):
    train, _ = splits
    return QGreedyPolicy(GraphPredictor(graph, truth, [i.item_id for i in train]))


class TestGraphQGreedy:
    def test_beats_random(self, graph_qgreedy, truth, test_item_ids):
        graph_traces = [graph_qgreedy.schedule(truth, i) for i in test_item_ids]
        random_traces = [
            QGreedyPolicy(RandomOrderPredictor(seed=21)).schedule(truth, i)
            for i in test_item_ids
        ]
        g = average_cost_curves("graph", graph_traces)
        r = average_cost_curves("random", random_traces)
        assert g.at(0.8)[0] < r.at(0.8)[0]

    def test_full_trace_valid(self, graph_qgreedy, truth, test_item_ids):
        trace = graph_qgreedy.schedule(truth, test_item_ids[0])
        assert trace.recall == pytest.approx(1.0)
        indices = [e.model_index for e in trace.executions]
        assert len(set(indices)) == len(indices)


class TestGraphPredictor:
    def test_drives_algorithm1(self, graph, truth, splits, test_item_ids):
        train, _ = splits
        predictor = GraphPredictor(graph, truth, [i.item_id for i in train])
        scheduler = CostQGreedyScheduler(predictor)
        budget = 0.3
        trace = scheduler.schedule(truth, test_item_ids[0], budget)
        assert trace.serial_time <= budget + 1e-9

    def test_predictions_nonnegative(self, graph, truth, splits, test_item_ids):
        from repro.core.state import LabelingState

        train, _ = splits
        predictor = GraphPredictor(graph, truth, [i.item_id for i in train])
        state = LabelingState(truth, test_item_ids[0])
        values = predictor.predict(state)
        assert (values >= 0).all()
        state.execute(0)
        values_after = predictor.predict(state)
        assert values_after.shape == values.shape
