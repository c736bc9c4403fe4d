"""Pure helpers: percentiles, span self-time, seeded inputs, schema, compare.

Nothing here imports ``repro`` or reads a clock, so ``test_harness.py``
can pin every rule with plain numbers.
"""

from __future__ import annotations

import math
import statistics
import zlib

import numpy as np

#: A reported tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10

# -- summaries ---------------------------------------------------------------


def rel_spread(values) -> float:
    """(max - min) / median of a metric's repetitions; 0 for one value."""
    values = list(values)
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    return (max(values) - min(values)) / abs(mid)


def tail_rank(n: int, cap: float = 99.0) -> int:
    """1-based rank of the highest percentile (<= cap) a sample supports.

    At least ten samples must lie beyond it.  With fewer than 20 samples
    even the median lacks ten beyond it; the median is then the only
    thing worth reporting.
    """
    if n < 2 * TAIL_SAMPLES:
        return max(1, math.ceil(n / 2))
    return min(math.ceil(cap / 100.0 * n - 1e-9), n - TAIL_SAMPLES)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= pct% at or below."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail(samples, cap: float = 99.0) -> tuple[float, float]:
    """(percentile used, its value) under the ten-samples-beyond rule."""
    ordered = sorted(samples)
    rank = tail_rank(len(ordered), cap)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


# -- spans -------------------------------------------------------------------
#
# A span is a dict with at least ``id``, ``parent`` (an id or None),
# ``name``, ``start`` and ``end``.


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap one another (worker threads under one parent),
    so the covered part is the union of their intervals, clipped to the
    parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


# -- seeded inputs -----------------------------------------------------------


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """One independent generator per (seed, named stream)."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def poisson_schedule(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """Due times (seconds from window start) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def zipf_picks(
    rng: np.random.Generator, n_keys: int, s: float, size: int
) -> np.ndarray:
    """``size`` key indices drawn Zipf(s); key ``k`` has popularity rank ``k``.

    Which keys are hot is a property of the key space, not of the seed:
    the seed only decides the sequence drawn.
    """
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** s
    return rng.choice(n_keys, size=size, p=weights / weights.sum())


def rotation(pattern, n: int) -> list:
    """``pattern`` repeated cyclically to length ``n``."""
    pattern = list(pattern)
    return [pattern[i % len(pattern)] for i in range(n)]


# -- result schema -----------------------------------------------------------

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def validate_result(obj, metric_names=None) -> list[str]:
    """Problems with one workload result line; empty when it conforms.

    The line is what ``run.py --workload`` prints last: exactly the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``; with
    ``metric_names`` given, the metrics must be exactly those.
    """
    if not isinstance(obj, dict):
        return ["result is not an object"]
    errors = []
    if sorted(obj) != sorted(RESULT_KEYS):
        errors.append(f"keys {sorted(obj)} != {sorted(RESULT_KEYS)}")
        return errors
    if not isinstance(obj["correct"], bool):
        errors.append("correct is not a bool")
    for key in ("attempted", "failed"):
        value = obj[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{key} is not a whole number")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or sorted(entry) != ["unit", "value"]:
            errors.append(f"metric {name}: expected exactly value and unit")
            continue
        value = entry["value"]
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            errors.append(f"metric {name}: value {value!r} is not a finite number")
        if not isinstance(entry["unit"], str) or not entry["unit"]:
            errors.append(f"metric {name}: unit missing")
    if metric_names is not None:
        missing = sorted(set(metric_names) - set(metrics))
        extra = sorted(set(metrics) - set(metric_names))
        if missing:
            errors.append(f"metrics missing: {missing}")
        if extra:
            errors.append(f"metrics not declared: {extra}")
    return errors


# -- compare -----------------------------------------------------------------


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive = worse, negative = better, whichever way the metric points.
    """
    if base == 0:
        return 0.0 if new == base else math.copysign(math.inf, new - base)
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(
    base: float,
    new: float,
    better: str,
    bound: float,
    base_runs=(),
    new_runs=(),
    floor: float = 0.0,
) -> str:
    """``ok`` / ``regression`` / ``unresolved`` for one metric x workload.

    ``regression``: the new value is worse than the base by more than
    the bound (and, with a ``floor``, by more than that many units).
    Otherwise ``ok`` — unless either side's own run-to-run spread is
    wider than the bound (and the floor), in which case the comparison
    cannot tell and is ``unresolved`` (still ``ok`` when every new run
    reads better than every base run).
    """
    if worsening(base, new, better) > bound and abs(new - base) > floor:
        return "regression"

    def wide(runs) -> bool:
        return rel_spread(runs) > bound and max(runs) - min(runs) > floor

    if wide(list(base_runs) or [base]) or wide(list(new_runs) or [new]):
        if base_runs and new_runs:
            if better == "lower" and max(new_runs) < min(base_runs):
                return "ok"
            if better == "higher" and min(new_runs) > max(base_runs):
                return "ok"
        return "unresolved"
    return "ok"
