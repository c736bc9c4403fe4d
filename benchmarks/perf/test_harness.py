"""Unit tests for the perf ledger's pure rules (no timing assertions).

Run with ``python -m pytest benchmarks/perf/test_harness.py``; safe for
tier-1 collection: nothing here starts a process or reads a clock.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from perfledger import stats  # noqa: E402

# -- the percentile rule -----------------------------------------------------


def supported(n):
    """The percentile the ten-samples-beyond rule allows ``n`` samples."""
    return stats.tail(range(n))[0]


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert supported(1000) == 99.0
        assert supported(100_000) == 99.0  # capped

    def test_fewer_samples_lower_the_percentile(self):
        assert supported(625) == pytest.approx(98.4)
        assert supported(240) == pytest.approx(100 * (1 - 10 / 240))
        assert supported(20) == 50.0

    def test_below_twenty_samples_only_the_median_stands(self):
        assert supported(18) == 50.0
        assert stats.tail([3, 1, 2]) == (pytest.approx(200 / 3), 2)

    @pytest.mark.parametrize("n", [20, 48, 240, 625, 999, 1000, 5000])
    def test_at_least_ten_samples_lie_beyond_the_tail(self, n):
        samples = list(range(n))
        _, value = stats.tail(samples)
        assert sum(1 for s in samples if s > value) >= stats.TAIL_SAMPLES

    def test_nearest_rank(self):
        samples = [5, 1, 4, 2, 3]
        assert stats.percentile(samples, 50) == 3
        assert stats.percentile(samples, 100) == 5
        assert stats.percentile(samples, 1) == 1
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_rel_spread(self):
        assert stats.rel_spread([10.0]) == 0.0
        assert stats.rel_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


# -- span self time ----------------------------------------------------------


def span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, None, "engine.label_batch", 0.0, 10.0),
            span(2, 1, "zoo.record_batch", 1.0, 3.0),
            span(3, 1, "engine.backend_run", 3.0, 9.0),
            span(4, 3, "rl.predict_batch", 4.0, 6.0),
            span(5, 3, "rl.predict_batch", 7.0, 8.0),
        ]
        own = stats.self_times(spans)
        assert own[1] == pytest.approx(10.0 - 2.0 - 6.0)  # grandchildren not again
        assert own[3] == pytest.approx(6.0 - 3.0)
        assert own[4] == pytest.approx(2.0)
        assert own[4] + own[5] == pytest.approx(3.0)
        assert sum(own.values()) == pytest.approx(10.0)  # nothing lost or doubled

    def test_overlapping_children_count_their_union(self):
        spans = [
            span(1, None, "parent", 0.0, 10.0),
            span(2, 1, "child", 1.0, 5.0),
            span(3, 1, "child", 3.0, 7.0),  # overlaps the first
            span(4, 1, "child", 6.0, 6.5),  # inside the second
        ]
        assert stats.self_times(spans)[1] == pytest.approx(10.0 - 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            span(1, None, "parent", 2.0, 6.0),
            span(2, 1, "child", 0.0, 3.0),
            span(3, 1, "child", 5.0, 9.0),
        ]
        assert stats.self_times(spans)[1] == pytest.approx(4.0 - 1.0 - 1.0)


# -- seeded inputs -----------------------------------------------------------


def draw(seed):
    """Every seeded input kind, as bytes."""
    rng = stats.stream_rng(seed, "gateway.rep0.1")
    schedule = stats.poisson_schedule(stats.stream_rng(seed, "arrivals"), 250.0, 500)
    picks = stats.zipf_picks(rng, 1024, 1.1, 2000)
    order = stats.stream_rng(seed, "serve.order").permutation(1024)
    return schedule.tobytes() + picks.tobytes() + order.tobytes()


class TestSeededInputs:
    def test_one_seed_is_byte_identical(self):
        assert draw(20200208) == draw(20200208)

    def test_seeds_differ(self):
        assert draw(1) != draw(2)

    def test_streams_of_one_seed_are_independent(self):
        a = stats.stream_rng(7, "a").random(8)
        b = stats.stream_rng(7, "b").random(8)
        assert a.tobytes() != b.tobytes()

    def test_poisson_schedule_is_increasing_at_the_rate(self):
        due = stats.poisson_schedule(stats.stream_rng(3, "x"), 200.0, 4000)
        assert (due[1:] > due[:-1]).all()
        assert due[-1] / 4000 == pytest.approx(1 / 200.0, rel=0.1)

    def test_zipf_is_skewed_and_in_range(self):
        picks = stats.zipf_picks(stats.stream_rng(3, "z"), 1024, 1.1, 20_000)
        assert picks.min() >= 0 and picks.max() < 1024
        assert (picks < 100).sum() > 0.6 * len(picks)  # the head carries the mass

    def test_rotation_cycles(self):
        assert stats.rotation("ab", 5) == ["a", "b", "a", "b", "a"]
        assert stats.rotation(("x",), 0) == []


# -- result schema -----------------------------------------------------------


def good_line():
    return {
        "correct": True,
        "attempted": 1000,
        "failed": 0,
        "metrics": {
            "items_per_s": {"value": 1234.5, "unit": "items/s"},
            "setup_s": {"value": 0.8, "unit": "s"},
        },
    }


class TestResultSchema:
    def test_a_conforming_line_passes(self):
        assert stats.validate_result(good_line()) == []
        assert stats.validate_result(good_line(), ["items_per_s", "setup_s"]) == []
        assert stats.validate_result(json.loads(json.dumps(good_line()))) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("failed"),
            lambda r: r.update(extra=1),
            lambda r: r.update(correct="yes"),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=1.5),
            lambda r: r.update(failed=True),
            lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
            lambda r: r["metrics"]["setup_s"].update(value="0.8"),
            lambda r: r["metrics"]["setup_s"].pop("unit"),
            lambda r: r["metrics"]["setup_s"].update(n=3),
            lambda r: r.update(metrics=[]),
        ],
    )
    def test_violations_are_reported(self, mutate):
        line = good_line()
        mutate(line)
        assert stats.validate_result(line)

    def test_declared_metrics_must_match_exactly(self):
        assert stats.validate_result(good_line(), ["items_per_s"])  # undeclared
        assert stats.validate_result(good_line(), ["items_per_s", "setup_s", "x"])

    def test_benchmark_json_is_consistent_with_the_harness(self):
        """Every declared workload exists; names and units fit the contract."""
        path = HERE.parents[1] / "BENCHMARK.json"
        if not path.exists():
            pytest.skip("no BENCHMARK.json beside this checkout")
        contract = json.loads(path.read_text())
        names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
        assert len(names) == len(set(names))
        assert "setup_s" in names
        assert 1 <= len(contract["per_layer"]) <= 128
        assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
        assert all(len(w["why"]) <= 200 for w in contract["workloads"])


# -- the compare rule --------------------------------------------------------


class TestCompareRule:
    def test_within_bound_is_ok_either_direction(self):
        assert stats.verdict(100.0, 95.0, "higher", 0.10) == "ok"
        assert stats.verdict(100.0, 105.0, "lower", 0.10) == "ok"
        assert stats.verdict(100.0, 150.0, "higher", 0.10) == "ok"  # a gain

    def test_past_the_bound_is_a_regression(self):
        assert stats.verdict(100.0, 89.0, "higher", 0.10) == "regression"
        assert stats.verdict(100.0, 111.0, "lower", 0.10) == "regression"

    def test_wide_spread_is_unresolved_not_unchanged(self):
        noisy = [80.0, 100.0, 120.0]
        assert stats.verdict(100.0, 98.0, "higher", 0.10, noisy, noisy) == "unresolved"
        tight = [99.0, 100.0, 101.0]
        assert stats.verdict(100.0, 98.0, "higher", 0.10, tight, tight) == "ok"

    def test_wide_spread_still_ok_when_every_run_reads_better(self):
        base, new = [80.0, 100.0, 120.0], [130.0, 150.0, 170.0]
        assert stats.verdict(100.0, 150.0, "higher", 0.10, base, new) == "ok"
        assert stats.verdict(100.0, 60.0, "lower", 0.10, base, [50, 60, 70]) == "ok"

    def test_a_regression_is_never_hidden_by_spread(self):
        noisy = [50.0, 100.0, 150.0]
        assert stats.verdict(100.0, 70.0, "higher", 0.10, noisy, noisy) == "regression"

    def test_an_absolute_floor_spares_small_differences(self):
        # +40 % but only 0.2 s: not a regression under a 0.5 s floor.
        assert stats.verdict(0.5, 0.7, "lower", 0.25, floor=0.5) == "ok"
        assert stats.verdict(0.5, 0.7, "lower", 0.25) == "regression"
        assert stats.verdict(4.0, 5.2, "lower", 0.25, floor=0.5) == "regression"
        jumpy = [0.79, 0.89, 1.17]  # 43 % of the median, but under 0.5 s
        assert stats.verdict(0.89, 0.89, "lower", 0.25, jumpy, jumpy) == "unresolved"
        assert stats.verdict(0.89, 0.89, "lower", 0.25, jumpy, jumpy, 0.5) == "ok"

    def test_worsening_is_signed_by_direction(self):
        assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
