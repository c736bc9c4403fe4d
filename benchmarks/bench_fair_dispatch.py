"""Fair dispatch + result cache: the two serving-tier rewrites, measured.

Two claims, two experiments:

1. **Weighted-fair buckets end regime starvation.**  A deterministic
   fake-clock trace drives sustained *saturating* high-priority traffic
   of one regime past a trickle of low-priority traffic of another.  A
   strict-priority grouper (the PR-3 heap this queue replaced) never
   dispatches the low regime while the pressure lasts, so its wait grows
   with the length of the trace; the per-key bucket queue
   (``repro.serving.queue``) serves buckets by stride-scheduled weighted
   round-robin, so the low-priority bucket keeps its bounded share and
   its p99 wait must stay within a few service slots no matter how long
   the trace runs.

2. **The result cache turns repeat traffic into dictionary lookups.**  A
   Zipf-skewed stream (>=50% repeats by construction) hits one
   :class:`~repro.serving.LabelingService` twice — cache off, then cache
   on.  Hits skip admission, batching, and scheduling entirely;
   submit-to-result throughput on the skewed stream improves >=5x at
   full scale.

Run standalone (the CI smoke path uses the tiny world and writes a JSON
report consumed as a workflow artifact)::

    PYTHONPATH=src python benchmarks/bench_fair_dispatch.py --scale smoke \
        --json fair_dispatch_report.json
    PYTHONPATH=src python benchmarks/bench_fair_dispatch.py --scale full
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import LabelingEngine
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingRequest, LabelingService, RequestQueue
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

#: The fair queue must keep the starved regime's p99 wait within this
#: many service slots, and serve all of it while the pressure lasts.
FAIR_WAIT_SLOTS = 20.0
#: Cache-on over cache-off submit-to-result throughput on the Zipf
#: stream (full scale; the smoke floor is softer for noisy CI runners).
CACHE_SPEEDUP_FLOOR = {"smoke": 1.5, "full": 5.0}


class FakeClock:
    """Deterministic time source so the dispatch sim runs in microseconds."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Item:
    """Minimal stand-in: the dispatch sim never labels anything."""

    __slots__ = ("item_id",)

    def __init__(self, item_id: str):
        self.item_id = item_id


# -- experiment 1: fairness under saturating cross-traffic -------------------


def run_fairness_trace(
    steps: int,
    batch_size: int = 8,
    service_time: float = 0.01,
    low_every: int = 4,
):
    """Replay one saturating cross-traffic trace; returns wait metrics.

    Each simulated service slot delivers ``batch_size`` high-priority
    requests of one regime (exactly saturating capacity), every
    ``low_every``-th slot one low-priority request of another, then pops
    and "serves" one batch.  After ``steps`` slots the arrivals stop and
    the backlog drains, so every low request is eventually dispatched —
    the question is *when*.
    """
    clock = FakeClock()
    queue = RequestQueue(max_depth=10_000_000, clock=clock)
    high = LabelingSpec(priority=3)
    low = LabelingSpec(deadline=1e9, priority=0)
    low_waits: list[float] = []
    in_loop_low = 0

    def serve_one():
        batch, _, _ = queue.pop_batch(batch_size, 0.0)
        clock.now += service_time
        count = 0
        for request in batch:
            if request.spec is low:
                low_waits.append(clock.now - request.submitted_at)
                count += 1
        return count

    for step in range(steps):
        for i in range(batch_size):
            queue.put(
                LabelingRequest(
                    item=_Item(f"high/{step}/{i}"), priority=3, spec=high,
                    submitted_at=clock.now,
                )
            )
        if step % low_every == 0:
            queue.put(
                LabelingRequest(
                    item=_Item(f"low/{step}"), spec=low,
                    submitted_at=clock.now,
                )
            )
        in_loop_low += serve_one()
    while queue.depth:
        serve_one()
    waits = np.asarray(low_waits)
    return {
        "steps": steps,
        "low_requests": int(waits.size),
        "low_served_under_pressure": in_loop_low,
        "low_p50_slots": float(np.percentile(waits, 50) / service_time),
        "low_p99_slots": float(np.percentile(waits, 99) / service_time),
        "low_max_slots": float(waits.max() / service_time),
    }


# -- experiment 2: result-cache throughput on a Zipf stream ------------------


def build_world(scale: str, n_distinct: int, seed: int = 20200208):
    vocab = "full" if scale == "full" else "mini"
    config = WorldConfig(vocab_scale=vocab, seed=seed)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    dataset = generate_dataset(space, config, "mscoco2017", n_distinct)
    truth = GroundTruth(zoo, dataset, config)
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1
    )
    predictor = AgentPredictor(agent, len(zoo))
    return config, zoo, list(dataset), truth, predictor


def zipf_stream(items, n_requests: int, alpha: float, seed: int):
    """A skewed request stream: rank-``alpha`` power law over ``items``."""
    ranks = np.arange(1, len(items) + 1, dtype=np.float64)
    weights = ranks**-alpha
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(items), size=n_requests, p=weights)
    return [items[i] for i in draws]


def run_cache_stream(
    scale: str,
    n_distinct: int,
    n_requests: int,
    alpha: float = 1.1,
    batch_size: int = 16,
    workers: int = 2,
    cache_size: int = 4096,
    seed: int = 20200208,
):
    """One skewed stream through one service, cache off vs on."""
    config, zoo, items, truth, predictor = build_world(scale, n_distinct, seed)
    stream = zipf_stream(items, n_requests, alpha, seed)
    unique = len({item.item_id for item in stream})
    repeat_share = 1.0 - unique / len(stream)
    throughput = {}
    for label, size in (("cache_off", None), ("cache_on", cache_size)):
        engine = LabelingEngine(zoo, predictor, config)
        service = LabelingService(
            engine,
            batch_size=batch_size,
            max_wait=0.002,
            workers=workers,
            max_depth=max(n_requests, 1),
            spec=LabelingSpec(),
            truth=truth,
            cache_size=size,
        )
        with service:
            started = time.perf_counter()
            futures = [service.submit(item) for item in stream]
            for future in futures:
                future.result()
            elapsed = time.perf_counter() - started
        snapshot = service.snapshot()
        assert snapshot.counters["failed"] == 0
        throughput[label] = {
            "elapsed_s": elapsed,
            "items_per_s": len(stream) / elapsed,
            "scheduled": snapshot.counters["submitted"],
            "cache_hit": snapshot.counters["cache_hit"],
            "coalesced": snapshot.counters["coalesced"],
        }
    speedup = (
        throughput["cache_on"]["items_per_s"]
        / throughput["cache_off"]["items_per_s"]
    )
    return {
        "requests": n_requests,
        "distinct_items": n_distinct,
        "unique_in_stream": unique,
        "repeat_share": repeat_share,
        "cache_off": throughput["cache_off"],
        "cache_on": throughput["cache_on"],
        "speedup": speedup,
    }


# -- reporting ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "full"))
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--distinct", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--json", default=None, help="write the report to this path"
    )
    args = parser.parse_args(argv)

    smoke = args.scale == "smoke"
    steps = args.steps if args.steps is not None else (400 if smoke else 2000)
    n_requests = (
        args.requests if args.requests is not None else (600 if smoke else 2000)
    )
    n_distinct = (
        args.distinct if args.distinct is not None else (24 if smoke else 64)
    )

    print(
        f"fair dispatch: scale={args.scale} trace_steps={steps} "
        f"cache_stream={n_requests} over {n_distinct} distinct items"
    )

    fair = run_fairness_trace(steps)
    print("\nlow-priority regime under saturating high-priority cross-traffic")
    print(
        "  (waits in service slots; 'under pressure' = dispatched before "
        "the cross-traffic stopped)"
    )
    print(
        f"  bucket queue    p50 {fair['low_p50_slots']:8.1f}  "
        f"p99 {fair['low_p99_slots']:8.1f}  "
        f"max {fair['low_max_slots']:8.1f}  "
        f"under pressure {fair['low_served_under_pressure']}"
        f"/{fair['low_requests']}"
    )

    cache = run_cache_stream(
        args.scale,
        n_distinct,
        n_requests,
        batch_size=args.batch_size,
        workers=args.workers,
    )
    print(
        f"\nresult cache on a Zipf stream "
        f"({cache['repeat_share']:.0%} repeats, "
        f"{cache['unique_in_stream']} unique items)"
    )
    for label in ("cache_off", "cache_on"):
        report = cache[label]
        print(
            f"  {label:10s} {report['items_per_s']:10.0f} items/sec  "
            f"(scheduled {report['scheduled']}, hits {report['cache_hit']}, "
            f"coalesced {report['coalesced']})"
        )
    print(f"  submit-to-result speedup: {cache['speedup']:.1f}x")

    failures = []
    if fair["low_p99_slots"] > FAIR_WAIT_SLOTS:
        failures.append(
            f"bucket-queue low-priority p99 {fair['low_p99_slots']:.1f} "
            f"slots exceeds the {FAIR_WAIT_SLOTS:.0f}-slot bound"
        )
    if fair["low_served_under_pressure"] != fair["low_requests"]:
        failures.append("low regime was not served while the pressure lasted")
    if cache["repeat_share"] < 0.5:
        failures.append(f"repeat share {cache['repeat_share']:.0%} below 50%")
    floor = CACHE_SPEEDUP_FLOOR[args.scale]
    if cache["speedup"] < floor:
        failures.append(
            f"cache speedup {cache['speedup']:.1f}x below {floor:.1f}x floor"
        )

    report = {
        "scale": args.scale,
        "fairness": {"bucket": fair},
        "cache": cache,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nreport written to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


# -- bench-suite entry point -------------------------------------------------


def test_fair_dispatch_and_cache():
    """The rewrite's measurable claims, at full scale.

    The bucket queue bounds the starved regime's p99 wait under
    saturating cross-traffic, and the result cache yields >=5x on a
    >=50% repeat Zipf stream.
    """
    assert main(["--scale", "full"]) == 0


if __name__ == "__main__":
    sys.exit(main())
