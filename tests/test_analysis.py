"""Analysis layer: metrics, CDFs, table rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf, quantile
from repro.analysis.metrics import (
    average_cost_curves,
    improvement,
    performance_ratio,
    savings,
)
from repro.analysis.tables import format_series, format_table
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor


class TestMetrics:
    def test_savings(self):
        assert savings(10.0, 5.0) == pytest.approx(0.5)
        assert savings(0.0, 5.0) == 0.0
        assert savings(4.0, 4.0) == 0.0

    def test_improvement(self):
        assert improvement(0.2, 0.6) == pytest.approx(2.0)  # +200%
        assert improvement(0.0, 0.5) == float("inf")
        assert improvement(0.0, 0.0) == 0.0

    def test_performance_ratio_basic(self):
        ratio = performance_ratio([0.5, 0.8], [1.0, 1.0])
        assert ratio == pytest.approx(0.65)

    def test_performance_ratio_skips_zero_upper(self):
        ratio = performance_ratio([0.0, 0.8], [0.0, 1.0])
        assert ratio == pytest.approx(0.8)

    def test_performance_ratio_caps_at_one(self):
        assert performance_ratio([1.2], [1.0]) == 1.0

    def test_performance_ratio_all_zero_upper(self):
        assert performance_ratio([0.0], [0.0]) == 1.0

    def test_performance_ratio_shape_mismatch(self):
        with pytest.raises(ValueError):
            performance_ratio([1.0], [1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(
        ours=st.lists(st.floats(0, 1), min_size=1, max_size=10),
        slack=st.floats(0.0, 0.5),
    )
    def test_performance_ratio_bounded(self, ours, slack):
        upper = [o + slack for o in ours]
        ratio = performance_ratio(ours, upper)
        assert 0.0 <= ratio <= 1.0


class TestCurves:
    def test_average_cost_curves(self, truth, test_item_ids):
        traces = [
            QGreedyPolicy(RandomOrderPredictor(seed=1)).schedule(truth, i)
            for i in test_item_ids[:10]
        ]
        curve = average_cost_curves("random", traces)
        assert curve.policy == "random"
        # monotone non-decreasing in threshold
        assert (np.diff(curve.avg_models) >= -1e-9).all()
        assert (np.diff(curve.avg_time) >= -1e-9).all()
        models_08, time_08 = curve.at(0.8)
        assert 1 <= models_08 <= len(truth.zoo)
        assert 0 < time_08 <= truth.zoo.total_time

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            average_cost_curves("none", [])


class TestCDF:
    def test_empirical_cdf_exact(self):
        x, y = empirical_cdf([1.0, 2.0, 3.0])
        assert np.allclose(x, [1, 2, 3])
        assert np.allclose(y, [1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_on_grid(self):
        _, y = empirical_cdf([1.0, 2.0, 3.0], grid=[0.0, 1.5, 10.0])
        assert np.allclose(y, [0.0, 1 / 3, 1.0])

    def test_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @settings(max_examples=30, deadline=None)
    @given(samples=st.lists(st.floats(-5, 5), min_size=1, max_size=50))
    def test_cdf_monotone_and_bounded(self, samples):
        _, y = empirical_cdf(samples, grid=np.linspace(-6, 6, 13))
        assert (np.diff(y) >= 0).all()
        assert y[0] >= 0.0 and y[-1] == 1.0

    def test_quantile(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(("a", "bbb"), [(1, 2), (33, 44)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series(
            "x", [0.5, 1.0], {"s1": [1.0, 2.0], "s2": [3.0, 4.0]}, precision=1
        )
        assert "0.5" in text and "1.0" in text and "4.0" in text
