"""Property-based tests for the evaluation function f(S, d) — Lemma 1.

The paper states f is non-negative, non-decreasing, and submodular.  We
verify all three on real ground-truth records with hypothesis-driven
subset/item selection, plus the labeling state's consistency with it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import evaluate_subset, marginal_gain
from repro.core.state import LabelingState

N_MODELS = 10  # mini zoo size
model_subsets = st.frozensets(st.integers(0, N_MODELS - 1), max_size=N_MODELS)
model_ids = st.integers(0, N_MODELS - 1)
item_indices = st.integers(0, 99)


@pytest.fixture(scope="module")
def ids(truth):
    return list(truth.item_ids)[:100]


class TestLemma1:
    @settings(max_examples=60, deadline=None)
    @given(subset=model_subsets, item=item_indices)
    def test_non_negative(self, truth, ids, subset, item):
        assert evaluate_subset(truth, ids[item], subset) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(subset=model_subsets, extra=model_ids, item=item_indices)
    def test_monotone(self, truth, ids, subset, extra, item):
        item_id = ids[item]
        f_small = evaluate_subset(truth, item_id, subset)
        f_large = evaluate_subset(truth, item_id, subset | {extra})
        assert f_large >= f_small - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        small=model_subsets,
        extra_models=st.frozensets(st.integers(0, N_MODELS - 1), max_size=4),
        added=model_ids,
        item=item_indices,
    )
    def test_submodular(self, truth, ids, small, extra_models, added, item):
        """f(S+m) - f(S) >= f(T+m) - f(T) whenever S is a subset of T."""
        item_id = ids[item]
        large = small | extra_models
        gain_small = evaluate_subset(truth, item_id, small | {added}) - (
            evaluate_subset(truth, item_id, small)
        )
        gain_large = evaluate_subset(truth, item_id, large | {added}) - (
            evaluate_subset(truth, item_id, large)
        )
        assert gain_small >= gain_large - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(item=item_indices)
    def test_full_set_equals_total_value(self, truth, ids, item):
        item_id = ids[item]
        f_all = evaluate_subset(truth, item_id, range(N_MODELS))
        assert f_all == pytest.approx(truth.total_value(item_id))

    @settings(max_examples=40, deadline=None)
    @given(subset=model_subsets, item=item_indices)
    def test_order_independence(self, truth, ids, subset, item):
        item_id = ids[item]
        forward = evaluate_subset(truth, item_id, sorted(subset))
        backward = evaluate_subset(truth, item_id, sorted(subset, reverse=True))
        assert forward == pytest.approx(backward)


class TestStateConsistency:
    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(range(N_MODELS))), item=item_indices)
    def test_state_value_matches_evaluate_subset(self, truth, ids, order, item):
        item_id = ids[item]
        state = LabelingState(truth, item_id)
        for j in order:
            state.execute(j)
        assert state.value == pytest.approx(truth.total_value(item_id))
        assert state.recall == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(item=item_indices, model=model_ids)
    def test_marginal_gain_matches_execute(self, truth, ids, item, model):
        item_id = ids[item]
        state = LabelingState(truth, item_id)
        predicted = marginal_gain(truth, item_id, state.confidences, model)
        before = state.value
        state.execute(model)
        assert state.value - before == pytest.approx(predicted)
