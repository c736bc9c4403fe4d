"""The five workloads: what each sets up, times, checks and counts.

A workload is set up (``setup``), run for repeated fixed-work windows
(``window``), checked for correct outputs outside the timed windows
(``check``) and torn down (``teardown`` — everything it started is
registered on ``self.stack`` the moment it exists, so any exit path
stops it).  With a tracer, ``setup`` injects the timing proxies.
"""

from __future__ import annotations

import http.client
import os
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro import GroundTruth, LabelingEngine, LabelingService
from repro.data.datasets import generate_dataset
from repro.durability.journal import Journal
from repro.engine import BatchedBackend, ClusterConfig, ProcessConfig, make_backend
from repro.obs import MetricsRegistry, install, uninstall

from perfledger import stats
from perfledger.loadgen import GatewayConnection, HttpReply, closed_loop, open_loop
from perfledger.probes import response_row
from perfledger.tracing import (
    TimedBackend,
    TimedCache,
    TimedJournal,
    TimedPredictor,
    TimedQueue,
    TimedTruth,
    TracedEngine,
    Tracer,
)
from perfledger.world import DATASET, SPECS, World

#: Every workload times this many windows of fixed work.
REPS = 3
#: Open-loop requests slower than this count as failed.  Twenty times the
#: p99: on the reference box's disk one journal fsync in a few thousand
#: stalls for 100-150 ms (and everything queued behind it with it), which
#: a 250 ms limit turned into failures in one run of ten.
LATENCY_LIMIT_S = 1.0
#: Offsets inside the seed's input range (windows grow upward from REPS).
WARM_OFFSET = 800_000
REPS_OFFSET = 10_000


@dataclass
class Window:
    """One timed window of fixed work."""

    items: int
    wall: float
    started: float
    ended: float
    attempted: int
    failed: int
    recall_sum: float
    #: Seconds per caller-visible unit: call, chunk or request.
    latencies: list = field(default_factory=list)
    #: Models executed over the window's completed items.
    executions: int = 0
    #: Load-generator health and anything workload-specific.
    extra: dict = field(default_factory=dict)


@dataclass
class Measured:
    windows: list
    #: One list of latencies per window (or per third of the open loop).
    latencies: list
    #: Windows that count toward attempts/failures/recall but not the rate.
    aux: list = field(default_factory=list)


def mismatches(got, expected) -> int:
    """How many results differ from the reference in item or executions."""
    wrong = abs(len(got) - len(expected))
    for ours, ref in zip(got, expected):
        if (
            ours.item_id != ref.item_id
            or ours.trace.executions != ref.trace.executions
        ):
            wrong += 1
    return wrong


class Workload:
    name = ""

    def __init__(self, world: World, seed: int, tmp: Path, tracer: Tracer | None):
        self.world = world
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.stack = ExitStack()
        #: Human-readable correctness failures; empty = outputs correct.
        self.problems: list[str] = []

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        stack, self.stack = self.stack, ExitStack()
        stack.close()

    def window(self, index: int) -> Window:
        raise NotImplementedError

    def traced_window(self, index: int) -> Window:
        """The window the traced pass compares and attributes."""
        return self.window(index)

    def measure(self) -> Measured:
        """Time ``REPS`` windows.  A run is a fixed amount of work wherever
        it runs: counts and ``label_recall`` repeat exactly for a seed, and
        a slow spell cannot shorten the run it slows."""
        windows = [self.window(i) for i in range(REPS)]
        return Measured(windows, [w.latencies for w in windows])

    def check(self) -> tuple[int, int]:
        """(outputs compared, outputs wrong); details go to ``problems``."""
        raise NotImplementedError

    # -- layer counters (traced pass) ----------------------------------------

    def raw_counters(self) -> dict[str, float]:
        """Cumulative additive counters the program exposes."""
        return {}

    def layer_metrics(self, delta: dict, window: Window) -> dict:
        """(b) metrics from the counter delta over the traced window."""
        return {}

    def untraced_extras(self, rate: float) -> dict:
        """More metrics the traced pass takes on its *bare* instance.

        ``rate`` is that instance's median items/s over its own windows.
        """
        return {}

    def _engine(self, backend, batch_size: int, traced_predictor: bool):
        """The engine under test, with proxies when tracing."""
        world = self.world
        predictor = world.predictor()
        if self.tracer is None:
            return LabelingEngine(
                world.zoo, predictor, world.config, backend, batch_size
            )
        if traced_predictor:
            predictor = TimedPredictor(predictor, self.tracer)
        return TracedEngine(
            world.zoo,
            predictor,
            world.config,
            TimedBackend(backend, self.tracer),
            batch_size,
            tracer=self.tracer,
        )

    def _truth(self, items, stream_chunks: bool = False) -> GroundTruth:
        world = self.world
        if self.tracer is None:
            return GroundTruth(world.zoo, items, world.config)
        return TimedTruth(
            world.zoo, items, world.config, self.tracer, stream_chunks=stream_chunks
        )

    def _reference(self, items, spec, backend="batched"):
        """Labels from a plain in-process engine on its own truth."""
        world = self.world
        engine = LabelingEngine(
            world.zoo, world.predictor(), world.config, backend=backend
        )
        return engine.label_batch(items, spec)


# -- offline_replay ----------------------------------------------------------


class OfflineReplay(Workload):
    """The scheduling hot path alone: Q-forward + scheduler tick over
    pre-recorded items; zoo, transport, serving, gateway, journal idle."""

    name = "offline_replay"
    BATCH = 64
    PASSES = 2

    def setup(self) -> None:
        n = self.world.scale.work(1024, self.BATCH)
        self.items = self.world.items(self.seed, 0, n)
        self.truth = self._truth(self.items)  # recording is set-up here
        self.engine = self._engine(BatchedBackend(), self.BATCH, traced_predictor=True)
        self.sample: dict[str, list] = {}
        for spec in SPECS.values():
            self.engine.label_batch(self.items[: self.BATCH], spec, truth=self.truth)

    def window(self, index: int, passes: int = PASSES) -> Window:
        latencies, done, recall, executions = [], 0, 0.0, 0
        started = time.perf_counter()
        starts = list(range(0, len(self.items), self.BATCH)) * passes
        for start in starts:
            batch = self.items[start : start + self.BATCH]
            for name, spec in SPECS.items():
                called = time.perf_counter()
                results = self.engine.label_batch(batch, spec, truth=self.truth)
                latencies.append(time.perf_counter() - called)
                done += len(results)
                recall += sum(r.recall for r in results)
                executions += sum(len(r.trace.executions) for r in results)
                if start == 0:
                    self.sample[name] = results
        ended = time.perf_counter()
        attempted = passes * len(SPECS) * len(self.items)
        return Window(
            done, ended - started, started, ended, attempted, attempted - done,
            recall, latencies, executions,
        )

    def traced_window(self, index: int) -> Window:
        return self.window(index, passes=1)  # one pass attributes as well as two

    def untraced_extras(self, rate: float) -> dict:
        """The cost of the program's own ``repro.obs`` hooks when installed."""
        install(MetricsRegistry())
        try:
            window = self.traced_window(0)
        finally:
            uninstall()
        return {
            "obs.install_overhead_share": (
                1.0 - (window.items / window.wall) / rate,
                "ratio",
            )
        }

    def check(self) -> tuple[int, int]:
        compared = wrong = 0
        head = self.items[: self.BATCH]
        for name, spec in SPECS.items():
            expected = self._reference(head, spec, backend="serial")
            bad = mismatches(self.sample[name], expected)
            if bad:
                self.problems.append(f"{name}: {bad} traces differ from SerialBackend")
            compared += len(expected)
            wrong += bad
        return compared, wrong


# -- stream_record / stream_cluster ------------------------------------------


class StreamWorkload(Workload):
    CHUNK = 128
    WORKERS = 2

    def backend_config(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.backend = make_backend(self.backend_config())
        self.stack.callback(self.backend.close)
        self.engine = self._engine(self.backend, self.CHUNK, traced_predictor=False)
        self.shared = self._truth([], stream_chunks=True)
        self.per_rep = self.world.scale.work(512, self.CHUNK)
        self.sample: dict[str, list] = {}
        self.sample_items: list = []
        # Warm-up spawns the workers and ships them the world snapshot.
        warm = self.world.items(self.seed, WARM_OFFSET, self.CHUNK // 2)
        for spec in SPECS.values():
            self._stream(warm, spec, [])

    def _stream(self, items, spec, latencies) -> list:
        results = []
        mark = time.perf_counter()
        for result in self.engine.label_stream(
            items, spec, truth=self.shared, batch_size=self.CHUNK
        ):
            results.append(result)
            if len(results) % self.CHUNK == 0 or len(results) == len(items):
                now = time.perf_counter()
                latencies.append(now - mark)
                mark = now
        return results

    def window(self, index: int) -> Window:
        # A new slice every window: nothing is ever already recorded.
        items = self.world.items(
            self.seed, REPS_OFFSET + index * self.per_rep, self.per_rep
        )
        latencies, done, recall, executions, leaked = [], 0, 0.0, 0, 0
        started = time.perf_counter()
        for name, spec in SPECS.items():
            results = self._stream(items, spec, latencies)
            done += len(results)
            recall += sum(r.recall for r in results)
            executions += sum(len(r.trace.executions) for r in results)
            leaked += len(self.shared)
            if index == 0:
                self.sample[name] = results[:256]
        ended = time.perf_counter()
        if index == 0:
            self.sample_items = items[:256]
        if leaked:
            self.problems.append(f"shared truth held {leaked} records after a stream")
        attempted = len(SPECS) * len(items)
        return Window(
            done, ended - started, started, ended, attempted, attempted - done,
            recall, latencies, executions,
        )

    def check(self) -> tuple[int, int]:
        compared = wrong = 0
        for name, spec in SPECS.items():
            expected = self._reference(self.sample_items, spec)
            bad = mismatches(self.sample[name], expected)
            if bad:
                self.problems.append(
                    f"{name}: {bad} traces differ from the in-process reference"
                )
            compared += len(expected)
            wrong += bad
        fallback = self._fallbacks(self.backend.chunk_stats["transport"])
        if fallback:
            self.problems.append(f"{fallback} payloads fell back to pickle")
        return compared, wrong + fallback

    @staticmethod
    def _fallbacks(transport: dict) -> int:
        return transport.get("delta_pickle", 0) + transport.get("result_pickle", 0)

    def raw_counters(self) -> dict[str, float]:
        chunk = self.backend.chunk_stats
        transport = chunk["transport"]
        fast = {
            direction: sum(
                count
                for key, count in transport.items()
                if key.startswith(direction) and not key.endswith("pickle")
            )
            for direction in ("delta", "result")
        }
        cluster = getattr(self.backend, "cluster_stats", None) or {}
        return {
            "chunks": chunk["chunks"],
            "chunk_items": chunk["items"],
            "worker_busy_s": chunk["seconds"],
            "delta_fast": fast["delta"],
            "delta_pickle": transport.get("delta_pickle", 0),
            "result_fast": fast["result"],
            "result_pickle": transport.get("result_pickle", 0),
            "snapshot_ships": cluster.get("snapshot_ships", 0),
            "redispatched": cluster.get("redispatched", 0),
        }

    def layer_metrics(self, delta: dict, window: Window) -> dict:
        shipped = sum(
            delta[k]
            for k in ("delta_fast", "delta_pickle", "result_fast", "result_pickle")
        )
        return {
            "engine.chunks": (delta["chunks"], "count"),
            "engine.chunk_items_mean": (
                delta["chunk_items"] / delta["chunks"] if delta["chunks"] else 0.0,
                "items",
            ),
            "engine.worker_busy_s": (delta["worker_busy_s"], "s"),
            "engine.delta_fast": (delta["delta_fast"], "count"),
            "engine.delta_pickle": (delta["delta_pickle"], "count"),
            "engine.result_fast": (delta["result_fast"], "count"),
            "engine.result_pickle": (delta["result_pickle"], "count"),
            "engine.fallback_share": (
                (delta["delta_pickle"] + delta["result_pickle"]) / shipped
                if shipped
                else 0.0,
                "ratio",
            ),
            # The cluster counts ships per connection; the process pool ships
            # once per worker at spawn and exposes no counter for it.
            "engine.snapshot_ships": (
                self.raw_counters()["snapshot_ships"] or self.WORKERS,
                "count",
            ),
            "engine.redispatched": (delta["redispatched"], "count"),
        }


class StreamRecord(StreamWorkload):
    """The paper's product path: fresh items recorded, scheduled in two
    worker processes over shm rings, released."""

    name = "stream_record"

    def backend_config(self):
        return ProcessConfig(max_workers=self.WORKERS)


class StreamCluster(StreamWorkload):
    """``stream_record``'s inputs over TCP frames to a two-worker local
    fleet: the same codecs behind the other transport."""

    name = "stream_cluster"

    def backend_config(self):
        return ClusterConfig(local_workers=self.WORKERS)


# -- serve_mixed -------------------------------------------------------------


class ServeMixed(Workload):
    """The in-process service with a journal: admission, queue,
    micro-batching, a cache miss and two WAL records per request; an open
    loop (latency), then a closed one (capacity)."""

    name = "serve_mixed"
    BATCH = 64
    RATE = 250.0
    OUTSTANDING = 256
    #: Open-loop seconds: of the timed phase, of a traced window.
    OPEN_S, TRACED_OPEN_S = 12.0, 1.0

    def setup(self) -> None:
        world, tracer = self.world, self.tracer
        n = world.scale.work(1024, self.BATCH)
        self.items = world.items(self.seed, 0, n)
        self.truth = self._truth(self.items)
        engine = self._engine(BatchedBackend(), self.BATCH, traced_predictor=True)
        directory = tempfile.mkdtemp(dir=self.tmp, prefix="journal-")
        if tracer is None:
            self.journal = Journal(directory, fsync="batch")
            extra = dict(cache_size=4096)
        else:
            self.journal = TimedJournal(directory, tracer, fsync="batch")
            extra = dict(
                cache=TimedCache(4096, tracer), queue_factory=TimedQueue.factory(tracer)
            )
        self.stack.callback(self.journal.close)
        self.service = LabelingService(
            engine,
            batch_size=self.BATCH,
            max_wait=0.01,
            workers=2,
            max_depth=8192,
            truth=self.truth,
            journal=self.journal,
            **extra,
        )
        self.service.start()
        self.stack.callback(self.service.shutdown)
        self.order = stats.stream_rng(self.seed, "serve.order").permutation(n)
        self.per_rep = world.scale.work(2048, self.BATCH)
        self.sample: list = []
        warm = self._requests("warm", self.BATCH * len(SPECS))
        closed_loop(self.service, warm, self.OUTSTANDING, self._submit())

    def _requests(self, tag: str, count: int, shift: int = 0) -> list:
        """``count`` unique (item, spec) keys: every one misses the cache.

        Request ``i`` takes spec ``(i + shift) % 3`` and item
        ``order[i % n]``; the pairs are distinct for ``i < 3n``, and
        ``tag`` (the spec's tenant, which partitions the cache but not
        the batches) keeps one window's keys apart from another's.
        """
        specs = [spec.with_(tenant=tag) for spec in SPECS.values()]
        n = len(self.items)
        if count > len(specs) * n:
            raise ValueError(f"{count} unique requests need more than {n} items")
        return [
            (self.items[self.order[i % n]], specs[(i + shift) % len(specs)])
            for i in range(count)
        ]

    def _submit(self):
        service = self.service
        if self.tracer is None:
            return lambda item, spec: service.submit(item, spec, wait="nowait")
        tracer = self.tracer

        def traced(item, spec):
            with tracer.span("serving.submit"):
                return service.submit(item, spec, wait="nowait")

        return traced

    def open_phase(self, seconds: float, index: int = 0) -> Window:
        count = self.world.scale.work(int(self.RATE * seconds))
        requests = self._requests(f"open-{index}", count, shift=index)
        due = stats.poisson_schedule(
            stats.stream_rng(self.seed, f"serve.arrivals.{index}"), self.RATE, count
        )
        loop = open_loop(self.service, requests, due, self._submit())
        late = sum(1 for s in loop.latencies.values() if s > LATENCY_LIMIT_S)
        return Window(
            len(loop.results),
            loop.wall,
            loop.started,
            loop.ended,
            count,
            loop.failed + late,
            sum(r.recall for _, r in loop.results),
            [loop.latencies[i] for i in sorted(loop.latencies)],  # due order
            sum(len(r.trace.executions) for _, r in loop.results),
            {"lags": loop.lags, "cpu": loop.cpu, "gen_wall": loop.wall},
        )

    def window(self, index: int) -> Window:
        requests = self._requests(f"closed-{index}", self.per_rep, shift=index)
        loop = closed_loop(self.service, requests, self.OUTSTANDING, self._submit())
        if index == 0:
            self.sample = [(requests[i], result) for i, result in loop.results[:256]]
        return Window(
            len(loop.results),
            loop.wall,
            loop.started,
            loop.ended,
            len(requests),
            loop.failed,
            sum(r.recall for _, r in loop.results),
            [],
            sum(len(r.trace.executions) for _, r in loop.results),
            {"lags": [], "cpu": loop.cpu, "gen_wall": loop.wall},
        )

    def measure(self) -> Measured:
        opened = self.open_phase(self.OPEN_S)
        closed = super().measure()
        # The open loop's arrivals in due-time order, cut into thirds.
        size = -(-len(opened.latencies) // REPS)
        thirds = [
            opened.latencies[start : start + size]
            for start in range(0, len(opened.latencies), size)
        ]
        return Measured(closed.windows, thirds, [opened])

    def traced_window(self, index: int) -> Window:
        opened = self.open_phase(self.TRACED_OPEN_S, index)
        closed = self.window(index)
        closed.started = opened.started
        closed.attempted += opened.attempted
        closed.failed += opened.failed
        closed.executions += opened.executions
        closed.extra = {
            "lags": opened.extra["lags"],
            "cpu": opened.extra["cpu"] + closed.extra["cpu"],
            "gen_wall": opened.wall + closed.wall,
        }
        return closed

    def check(self) -> tuple[int, int]:
        compared = wrong = 0
        for name, spec in SPECS.items():
            picked = [
                (item, result)
                for (item, used), result in self.sample
                if used.batch_key == spec.batch_key
            ]
            if not picked:
                continue
            expected = self._reference([item for item, _ in picked], spec)
            bad = mismatches([result for _, result in picked], expected)
            if bad:
                self.problems.append(f"{name}: {bad} results differ from label_batch")
            compared += len(expected)
            wrong += bad
        self.service.drain()
        counters = self.service.snapshot().counters
        settled = sum(
            counters[k] for k in ("completed", "failed", "rejected", "expired")
        )
        if counters["submitted"] != settled:
            self.problems.append(
                f"submitted {counters['submitted']} != settled {settled}"
            )
            wrong += 1
        if self.journal.pending_count:
            self.problems.append(
                f"journal holds {self.journal.pending_count} pending after drain"
            )
            wrong += 1
        return compared + 2, wrong

    def raw_counters(self) -> dict[str, float]:
        snap = self.service.snapshot()
        cache = self.service.cache.stats()
        journal = self.journal.stats()
        return {
            "batches": snap.batches,
            "batched_items": snap.batched_items,
            "flush_size": snap.flushes["size"],
            "flush_wait": snap.flushes["wait"],
            "flush_regime_split": snap.flushes["regime_split"],
            "rejected": snap.counters["rejected"],
            "expired": snap.counters["expired"],
            "cache_hit": cache.hits,
            "cache_miss": cache.misses,
            "coalesced": cache.coalesced,
            "cache_evictions": cache.evictions,
            "journal_records": journal.admitted + sum(journal.terminals.values()),
            "journal_bytes": journal.bytes_written,
            "journal_fsyncs": journal.fsyncs,
        }

    def layer_metrics(self, delta: dict, window: Window) -> dict:
        snap = self.service.snapshot()
        out = serving_metrics(
            delta,
            queue_wait=(snap.queue_wait.p50, snap.queue_wait.p99),
            service_time=(snap.service_time.p50, snap.service_time.p99),
        )
        out.update(
            {
                "durability.records": (delta["journal_records"], "count"),
                "durability.bytes_written": (delta["journal_bytes"], "bytes"),
                "durability.fsyncs": (delta["journal_fsyncs"], "count"),
                "durability.pending_after_drain": (
                    float(self.journal.pending_count),
                    "count",
                ),
            }
        )
        return out


def serving_metrics(delta: dict, queue_wait, service_time) -> dict:
    """The (b) serving metrics shared by ``serve_mixed`` and ``gateway_zipf``.

    Counts are deltas over the traced window; the queue-wait and
    service-time percentiles come from the service's own histograms and
    so cover everything since it started, warm-up included.
    """
    lookups = delta["cache_hit"] + delta["cache_miss"] + delta["coalesced"]
    return {
        "serving.queue_wait_p50_ms": (queue_wait[0] * 1e3, "ms"),
        "serving.queue_wait_p99_ms": (queue_wait[1] * 1e3, "ms"),
        "serving.service_time_p50_ms": (service_time[0] * 1e3, "ms"),
        "serving.service_time_p99_ms": (service_time[1] * 1e3, "ms"),
        "serving.batch_size_mean": (
            delta["batched_items"] / delta["batches"] if delta["batches"] else 0.0,
            "items",
        ),
        "serving.flush_size": (delta["flush_size"], "count"),
        "serving.flush_wait": (delta["flush_wait"], "count"),
        "serving.flush_regime_split": (delta["flush_regime_split"], "count"),
        "serving.rejected": (delta["rejected"], "count"),
        "serving.expired": (delta["expired"], "count"),
        "serving.cache_hit_share": (
            (delta["cache_hit"] + delta["coalesced"]) / lookups if lookups else 0.0,
            "ratio",
        ),
        "serving.coalesced": (delta["coalesced"], "count"),
        "serving.cache_evictions": (delta["cache_evictions"], "count"),
    }


# -- gateway_zipf ------------------------------------------------------------


@dataclass
class Plan:
    """One HTTP request of a connection's seeded sequence."""

    kind: str
    path: str
    body: dict
    api_key: str
    spec: str
    item_ids: list


class GatewayZipf(Workload):
    """The gateway subprocess over HTTP, Zipf-repeated items mostly
    answered from the tenant-partitioned cache: parse, auth, quota and
    JSON render dominate."""

    name = "gateway_zipf"
    CONNECTIONS = 2
    ROTATION = ("label", "label", "batch", "label", "label", "batch", "label", "stream")
    GROUP = 32
    TENANTS = 3
    ZIPF_S = 1.1
    #: Cached repeats sent to price the HTTP stack around a hit.
    HIT_BURST = 200

    def setup(self) -> None:
        world = self.world
        self.catalog = world.scale.work(1024, 128)
        self.per_conn = world.scale.work(208, len(self.ROTATION))
        agent = self.tmp / "agent.npz"
        if not agent.exists():
            world.agent.save(agent)
        self.process, self.port = self._spawn(agent)
        self.conns = [
            GatewayConnection("127.0.0.1", self.port) for _ in range(self.CONNECTIONS)
        ]
        for conn in self.conns:
            self.stack.callback(conn.close)
        self.sample: list = []
        self.last_label: tuple | None = None
        self._run("warm", world.scale.work(80, 8))

    def _spawn(self, agent: Path):
        """Start ``repro.cli gateway`` and wait for its listening line."""
        root = Path(__file__).resolve().parents[3]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "repro.cli", "--scale", self.world.scale.vocab,
            "gateway", "--items", str(self.catalog), "--demo-tenants",
            str(self.TENANTS), "--batch-size", "64", "--max-wait", "0.01",
            "--workers", "2", "--max-depth", "8192", "--cache-size",
            str(self.catalog), "--agent", str(agent), "--hidden",
            str(self.world.scale.hidden),
        ]  # fmt: skip
        log = open(self.tmp / "gateway.stderr", "ab")
        self.stack.callback(log.close)
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
        self.stack.callback(stop_process, process)
        for line in process.stdout:
            if line.startswith("gateway listening at"):
                port = int(line.split()[3].rsplit(":", 1)[1])
                # Nothing reads the pipe from here on; the gateway prints
                # only a shutdown line afterwards.
                return process, port
        raise RuntimeError(
            f"gateway exited with {process.wait()} before listening "
            f"(see {self.tmp / 'gateway.stderr'})"
        )

    def _plans(self, conn: int, stream: str, count: int) -> list[Plan]:
        rng = stats.stream_rng(self.seed, f"gateway.{stream}.{conn}")
        kinds = stats.rotation(self.ROTATION, count)
        sizes = [1 if kind == "label" else self.GROUP for kind in kinds]
        picks = stats.zipf_picks(rng, self.catalog, self.ZIPF_S, sum(sizes))
        names = list(SPECS)
        plans, cursor = [], 0
        for i, (kind, size) in enumerate(zip(kinds, sizes)):
            ids = [f"{DATASET}/{int(k):06d}" for k in picks[cursor : cursor + size]]
            cursor += size
            # Tenant k always labels under spec k: three (tenant, spec)
            # partitions of the cache, each seeing every third request.
            tenant = i % self.TENANTS
            name = names[tenant % len(names)]
            spec = SPECS[name]
            body = {
                key: value
                for key, value in (
                    ("deadline", spec.deadline),
                    ("memory_budget", spec.memory_budget),
                )
                if value is not None
            }
            if kind == "label":
                path, body["item_id"] = "/v1/label", ids[0]
            elif kind == "batch":
                path, body["items"], body["mode"] = "/v1/label/batch", ids, "sync"
            else:
                path, body["items"] = "/v1/label/stream", ids
            plans.append(
                Plan(kind, path, body, f"demo-key-tenant-{tenant}", name, ids)
            )
        return plans

    def _run(self, stream: str, count: int):
        """Each connection sends its sequence back to back (closed loop)."""
        plans = [self._plans(c, stream, count) for c in range(self.CONNECTIONS)]
        replies: list[list] = [[] for _ in plans]
        cpu = [0.0] * len(plans)

        def call(c: int, plan: Plan) -> HttpReply:
            try:
                return self.conns[c].call("POST", plan.path, plan.body, plan.api_key)
            except (OSError, http.client.HTTPException) as exc:
                return HttpReply(0, {"error": repr(exc)}, 0.0)

        def client(c: int) -> None:
            mark = time.thread_time()
            for plan in plans[c]:
                if self.tracer is None:
                    reply = call(c, plan)
                else:  # the only span a subprocess allows: the client's
                    with self.tracer.span("gateway.request", kind=plan.kind) as span:
                        reply = call(c, plan)
                        span["status"] = reply.status
                replies[c].append((plan, reply))
            cpu[c] = time.thread_time() - mark

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(len(plans))
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        return replies, sum(cpu), started, ended

    @staticmethod
    def rows(plan: Plan, reply: HttpReply) -> list[dict]:
        """The per-item rows of one 200 reply (none for any other status)."""
        if reply.status != 200:
            return []
        if plan.kind == "label":
            return [reply.body]
        if plan.kind == "batch":
            return reply.body["results"]
        return [line for line in reply.body if line.get("status") != "end"]

    def window(self, index: int) -> Window:
        replies, cpu, started, ended = self._run(f"rep{index}", self.per_conn)
        flat = [pair for per_conn in replies for pair in per_conn]
        done, recall, executions, attempted = 0, 0.0, 0, 0
        by_kind: dict[str, list] = {}
        statuses: dict[int, int] = {}
        for plan, reply in flat:
            attempted += len(plan.item_ids)
            statuses[reply.status] = statuses.get(reply.status, 0) + 1
            by_kind.setdefault(plan.kind, []).append((plan, reply))
            for row in self.rows(plan, reply):
                if row.get("status") == "completed":
                    done += 1
                    recall += row["recall"]
                    executions += len(row["models_executed"])
        if index == 0:
            self.sample = flat
        labels = [pair for pair in replies[0] if pair[0].kind == "label"]
        if labels and labels[-1][1].status == 200:
            self.last_label = labels[-1]
        return Window(
            done,
            ended - started,
            started,
            ended,
            attempted,
            attempted - done,
            recall,
            [reply.seconds for _, reply in by_kind.get("label", [])],
            executions,
            {
                "lags": [],
                "cpu": cpu,
                "gen_wall": ended - started,
                "by_kind": by_kind,
                "statuses": statuses,
                "requests": len(flat),
            },
        )

    def check(self) -> tuple[int, int]:
        """Sampled rows against a local reference, and one cached repeat."""
        world = self.world
        catalog = {
            item.item_id: item
            for item in generate_dataset(
                world.space, world.config, DATASET, self.catalog
            )
        }
        wanted: dict[str, dict[str, dict]] = {name: {} for name in SPECS}
        for plan, reply in self.sample:
            for row in self.rows(plan, reply):
                if len(wanted[plan.spec]) < 32 and row.get("status") == "completed":
                    wanted[plan.spec].setdefault(row["item_id"], row)
        compared = wrong = 0
        fields = ("item_id", "models_executed", "labels", "recall", "time_used")
        for name, rows in wanted.items():
            items = [catalog[item_id] for item_id in rows]
            for result in self._reference(items, SPECS[name]):
                expected = response_row(result)
                got = rows[result.item_id]
                compared += 1
                if any(got[k] != expected[k] for k in fields):
                    wrong += 1
                    self.problems.append(
                        f"{name} {result.item_id}: response differs from reference"
                    )
        if self.last_label is None:
            self.problems.append("no successful /v1/label request to repeat")
            return compared + 1, wrong + 1
        plan, first = self.last_label
        again = self.conns[0].call("POST", plan.path, plan.body, plan.api_key)
        compared += 1
        same = again.status == 200 and all(
            again.body[k] == first.body[k] for k in fields
        )
        if not (same and again.body["cached"] is True):
            wrong += 1
            self.problems.append(
                f"repeat of {plan.item_ids[0]} was not a cached identical answer"
            )
        return compared, wrong

    # -- counters from /metrics.json -----------------------------------------

    def _metrics_json(self) -> dict:
        return self.conns[0].call("GET", "/metrics.json").body

    @staticmethod
    def _sum(families: dict, name: str, **labels) -> float:
        return sum(
            sample["value"]
            for sample in families.get(name, {}).get("samples", ())
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )

    @staticmethod
    def _quantile(families: dict, name: str, q: str) -> float:
        values = [
            sample["value"]
            for sample in families.get(name, {}).get("samples", ())
            if sample["labels"].get("quantile") == q
        ]
        return sum(values) / len(values) if values else 0.0

    def _hit_overhead(self) -> float:
        """Mean seconds a cached ``/v1/label`` spends outside its handler.

        A burst of repeats of one labelled request — every one a cache
        hit, and the only traffic meanwhile — timed at the client, minus
        what the server's own ``repro_gateway_e2e_seconds`` grew by per
        request over exactly that burst.
        """
        if self.last_label is None:
            return 0.0
        plan, _ = self.last_label

        def served() -> tuple[float, float]:
            fam = self._metrics_json()
            return (
                self._sum(fam, "repro_gateway_e2e_seconds_sum"),
                self._sum(fam, "repro_gateway_e2e_seconds_count"),
            )

        before = served()
        client = [
            self.conns[0].call("POST", plan.path, plan.body, plan.api_key).seconds
            for _ in range(self.HIT_BURST)
        ]
        after = served()
        server = (after[0] - before[0]) / (after[1] - before[1])
        return sum(client) / len(client) - server

    def raw_counters(self) -> dict[str, float]:
        fam = self._metrics_json()
        total = self._sum
        return {
            "batches": total(fam, "repro_batches_total"),
            "batched_items": total(fam, "repro_batched_items_total"),
            "flush_size": total(fam, "repro_batches_total", reason="size"),
            "flush_wait": total(fam, "repro_batches_total", reason="wait"),
            "flush_regime_split": total(
                fam, "repro_batches_total", reason="regime_split"
            ),
            "rejected": total(fam, "repro_requests_total", outcome="rejected"),
            "expired": total(fam, "repro_requests_total", outcome="expired"),
            "cache_hit": total(fam, "repro_cache_events_total", event="hit"),
            "cache_miss": total(fam, "repro_cache_events_total", event="miss"),
            "coalesced": total(fam, "repro_cache_events_total", event="coalesced"),
            "cache_evictions": total(
                fam, "repro_cache_events_total", event="eviction"
            ),
        }

    def layer_metrics(self, delta: dict, window: Window) -> dict:
        fam = self._metrics_json()
        out = serving_metrics(
            delta,
            queue_wait=(
                self._quantile(fam, "repro_queue_wait_seconds", "0.5"),
                self._quantile(fam, "repro_queue_wait_seconds", "0.99"),
            ),
            service_time=(
                self._quantile(fam, "repro_service_time_seconds", "0.5"),
                self._quantile(fam, "repro_service_time_seconds", "0.99"),
            ),
        )
        by_kind = window.extra["by_kind"]

        def seconds(kind, cached=None):
            picked = []
            for plan, reply in by_kind.get(kind, []):
                if reply.status != 200:
                    continue
                if cached is None or reply.body["cached"] is cached:
                    picked.append(reply.seconds)
            return picked or [0.0]

        def status_count(lo, hi):
            return float(
                sum(n for s, n in window.extra["statuses"].items() if lo <= s < hi)
            )

        hit = stats.percentile(seconds("label", True), 50)
        server = self._quantile(fam, "repro_gateway_e2e_seconds", "0.5")
        firsts = [
            reply.first_line
            for _, reply in by_kind.get("stream", [])
            if reply.first_line is not None
        ] or [0.0]
        out.update(
            {
                "gateway.label_hit_p50_ms": (hit * 1e3, "ms"),
                "gateway.label_miss_p50_ms": (
                    stats.percentile(seconds("label", False), 50) * 1e3,
                    "ms",
                ),
                "gateway.batch_p50_ms": (
                    stats.percentile(seconds("batch"), 50) * 1e3,
                    "ms",
                ),
                "gateway.batch_p95_ms": (
                    stats.percentile(seconds("batch"), 95) * 1e3,
                    "ms",
                ),
                "gateway.stream_first_line_p50_ms": (
                    stats.percentile(firsts, 50) * 1e3,
                    "ms",
                ),
                "gateway.stream_total_p50_ms": (
                    stats.percentile(seconds("stream"), 50) * 1e3,
                    "ms",
                ),
                "gateway.status_2xx": (status_count(200, 300), "count"),
                "gateway.status_429": (status_count(429, 430), "count"),
                "gateway.status_5xx": (
                    status_count(500, 600) + status_count(0, 1),
                    "count",
                ),
                "gateway.server_e2e_p50_ms": (server * 1e3, "ms"),
                # The gateway's cache *is* the service's: one number, two names.
                "gateway.cache_hit_share": out["serving.cache_hit_share"],
                "gateway.http_overhead_p50_ms": (self._hit_overhead() * 1e3, "ms"),
            }
        )
        return out


def stop_process(process: subprocess.Popen, grace: float = 10.0) -> None:
    """SIGTERM (the gateway drains on it), then SIGKILL; always reaped."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(grace)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


WORKLOADS = {
    cls.name: cls
    for cls in (OfflineReplay, StreamRecord, StreamCluster, ServeMixed, GatewayZipf)
}

