"""The unified metrics registry: named counters, gauges, and histograms.

Every counter, gauge and latency reservoir in the process lives here:
the serving tier's :class:`~repro.serving.telemetry.ServiceTelemetry`
is a typed front over families it owns in a :class:`MetricsRegistry`,
the gateway and the scheduler-tick hooks own theirs the same way, and
state that some other object already keeps (the process backend's
``chunk_stats`` dict, journal and cache stats) is read at scrape time.
The registry is the one place they all publish into, and the one place
exporters read from:

* **Owned metrics** — :meth:`~MetricsRegistry.counter`,
  :meth:`~MetricsRegistry.gauge`, and :meth:`~MetricsRegistry.histogram`
  create (or return the existing) named metric family.  Families carry
  optional label names; ``family.labels(regime="deadline")`` returns the
  child series for one label combination, cheap enough to call from a
  dispatch tick (callers on hot paths should still cache the child).
* **Pull-time collectors** — :meth:`~MetricsRegistry.register_collector`
  accepts a callable returning :class:`MetricFamily` records, evaluated
  only when the registry is scraped.  Surfaces that already accumulate
  their own state (a backend's ``chunk_stats``, the journal, the result
  cache) publish through a collector and pay **zero** hot-path cost for
  being exported.
* **Exporters** — :meth:`~MetricsRegistry.render_prometheus` emits the
  Prometheus text exposition format; :meth:`~MetricsRegistry.snapshot`
  emits the same data as a JSON-able dict.  Histograms export as
  summaries: ``{quantile="0.5"}`` samples from the reservoir plus an
  exact, monotonic ``_sum``/``_count``.

This module is deliberately **stdlib-only** (no numpy, no repro imports):
the scheduling layer imports it from inside ``schedule_batch``, and the
engine backends sit below it, so it must not pull the serving tier (or
anything heavy) into their import graphs.
"""

from __future__ import annotations

import json
import logging
import random
import threading
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SUMMARY_QUANTILES",
]

#: Quantiles every histogram exports (as Prometheus summary samples).
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

logger = logging.getLogger("repro.obs.registry")


@dataclass(frozen=True)
class MetricFamily:
    """One exported metric family: a name, a kind, and its samples.

    ``samples`` pairs a label dict with a value.  Collectors return these
    directly; owned metrics produce them at collect time.  ``kind`` is a
    Prometheus type string (``counter`` / ``gauge`` / ``summary``).
    """

    name: str
    kind: str
    help: str
    samples: tuple = field(default_factory=tuple)


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def render_sample(name: str, labels: dict, value: float) -> str:
    """One exposition line: ``name{k="v",...} value``."""
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {value:g}"
    return f"{name} {value:g}"


class _Metric:
    """Base of owned metric families: label bookkeeping + child registry."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._lock = threading.Lock()
        #: label-value tuple -> child series.
        self._children: dict[tuple, object] = {}

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child series for one label combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _default_child(self):
        """The unlabeled series of a label-less family."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled ({list(self.labelnames)}); "
                "use .labels(...)"
            )
        return self.labels()

    def _items(self) -> list[tuple[dict, object]]:
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    def collect(self) -> list[MetricFamily]:
        raise NotImplementedError


class _Value:
    """One numeric series, mutated under its own small lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0.0):
        self._lock = threading.Lock()
        self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _CounterValue(_Value):
    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += n


class _GaugeValue(_Value):
    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n


class Counter(_Metric):
    """Monotonically increasing count (name should end in ``_total``)."""

    kind = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, n: float = 1.0) -> None:
        self._default_child().inc(n)

    @property
    def value(self) -> float:
        return self._default_child().value

    def collect(self) -> list[MetricFamily]:
        samples = tuple(
            (labels, child.value) for labels, child in self._items()
        )
        return [MetricFamily(self.name, self.kind, self.help, samples)]


class Gauge(_Metric):
    """A value that can go up and down (depths, sizes, ratios)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, n: float = 1.0) -> None:
        self._default_child().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._default_child().dec(n)

    @property
    def value(self) -> float:
        return self._default_child().value

    def collect(self) -> list[MetricFamily]:
        samples = tuple(
            (labels, child.value) for labels, child in self._items()
        )
        return [MetricFamily(self.name, self.kind, self.help, samples)]


class _HistogramValue:
    """Bounded reservoir of observations plus exact count and sum.

    Classic reservoir sampling: the first ``capacity`` observations are
    kept verbatim; afterwards each new observation replaces a uniformly
    random slot with probability ``capacity / count``, so an unbounded
    stream runs in bounded memory while the quantiles stay
    representative.  ``count`` and ``total`` always cover the full
    population.  The RNG is seeded, so summaries are reproducible for a
    fixed observation sequence.  Quantiles are computed by sorting the
    reservoir at read time — reads are rare, observation is hot.
    """

    __slots__ = ("_lock", "capacity", "count", "total", "_samples", "_rng")

    def __init__(self, capacity: int, seed: int = 0):
        self._lock = threading.Lock()
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if len(self._samples) < self.capacity:
                self._samples.append(value)
                return
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = value

    def summary(
        self, qs=SUMMARY_QUANTILES
    ) -> tuple[int, float, dict[float, float]]:
        """``(count, sum, {q: value})`` from one consistent read.

        Count and sum are exact; quantiles interpolate over the
        reservoir (``q=1.0`` is its maximum) and read 0.0 when empty.
        """
        with self._lock:
            count, total, data = self.count, self.total, list(self._samples)
        if not data:
            return count, total, {q: 0.0 for q in qs}
        data.sort()
        last = len(data) - 1
        quantiles = {}
        for q in qs:
            # Linear interpolation between closest ranks (numpy's default).
            pos = q * last
            lo = int(pos)
            hi = min(lo + 1, last)
            frac = pos - lo
            quantiles[q] = data[lo] * (1.0 - frac) + data[hi] * frac
        return count, total, quantiles


class Histogram(_Metric):
    """Reservoir-backed distribution exported as a quantile summary."""

    kind = "summary"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        capacity: int = 4096,
        seed: int = 0,
    ):
        super().__init__(name, help, labelnames)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.capacity, self.seed)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def collect(self) -> list[MetricFamily]:
        quantile_samples = []
        sums = []
        counts = []
        for labels, child in self._items():
            count, total, quantiles = child.summary()
            for q, value in quantiles.items():
                quantile_samples.append(({**labels, "quantile": str(q)}, value))
            sums.append((labels, total))
            counts.append((labels, count))
        return [
            MetricFamily(self.name, self.kind, self.help, tuple(quantile_samples)),
            MetricFamily(
                f"{self.name}_sum", "counter", f"{self.help} (sum)", tuple(sums)
            ),
            MetricFamily(
                f"{self.name}_count",
                "counter",
                f"{self.help} (count)",
                tuple(counts),
            ),
        ]


class MetricsRegistry:
    """Process-wide (or per-service) home of every exported metric.

    Thread-safe.  Creation methods are get-or-create: asking twice for
    the same name returns the same family, while asking with a different
    metric kind or label set raises — two subsystems cannot silently
    publish incompatible series under one name.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list = []

    # -- creation ------------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}, "
                        f"cannot re-register as {cls.__name__}{labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        capacity: int = 4096,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, capacity=capacity
        )

    def register_collector(self, collector) -> None:
        """Add a pull-time source: a callable returning MetricFamily records.

        Evaluated on every :meth:`collect` — surfaces that already keep
        their own accumulators export through one of these and pay
        nothing on their hot paths.  A collector that raises is logged
        and skipped for that scrape (one broken surface must not take
        down the endpoint).
        """
        with self._lock:
            self._collectors.append(collector)

    # -- collection / export -------------------------------------------------

    def collect(self) -> list[MetricFamily]:
        """Every family, owned metrics first, then collectors, name-sorted."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        families: list[MetricFamily] = []
        for metric in metrics:
            families.extend(metric.collect())
        for collector in collectors:
            try:
                families.extend(collector())
            except Exception:  # noqa: BLE001 — a scrape must never die
                logger.exception("metrics collector %r failed", collector)
        return sorted(families, key=lambda f: f.name)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for family in self.collect():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, value in family.samples:
                lines.append(render_sample(family.name, labels, value))
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """The same data as a JSON-able dict keyed by family name."""
        out: dict = {}
        for family in self.collect():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": [
                    {"labels": labels, "value": value}
                    for labels, value in family.samples
                ],
            }
        return out

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
