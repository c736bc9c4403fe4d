"""Latency and throughput of the micro-batching labeling service.

Two views of `repro.serving.LabelingService`:

1. **Closed-loop throughput** — all items submitted as fast as possible;
   compares micro-batched dispatch (``batch_size=64``) against degenerate
   per-item dispatch (``batch_size=1``) through the same service, workers,
   and engine.  The headline claim: at full scale on the unconstrained
   path, micro-batching sustains >= 3x the items/sec of per-item dispatch,
   because each flush becomes one stacked Q-network forward per round
   over the rows whose observation changed instead of per item.
2. **Open-loop latency** — items submitted at fixed arrival rates across a
   grid of ``max_wait`` flush timers; reports p50/p95/p99 queue wait and
   service time per cell.  p99 queue wait stays bounded by ``max_wait``
   plus dispatch overhead while the offered load is below capacity.

Run standalone (the CI smoke path uses the tiny world)::

    PYTHONPATH=src python benchmarks/bench_serving_latency.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_serving_latency.py \
        --scale full --assert-speedup 3.0
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import LabelingEngine
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

#: The acceptance bar: batch-64 vs batch-1 dispatch items/sec, full scale.
TARGET_SPEEDUP = 3.0

#: Queue-wait slack over ``max_wait`` tolerated before a cell is flagged:
#: dispatch + one in-progress batch ahead of the flush.
P99_SLACK = 0.05

_WORLDS: dict[tuple, tuple] = {}


def build_world(scale: str = "smoke", n_items: int = 64, seed: int = 20200208):
    """(config, zoo, items, truth, predictor) for one bench world, cached.

    ``smoke`` and ``mini`` use the small world (10 models, 58 labels);
    ``full`` the paper's 30-model / 1104-label world, where the stacked
    forward dominates and micro-batching pays off most.  Ground truth is
    pre-recorded so the service measures scheduling, not zoo execution;
    the predictor wraps an untrained network (throughput does not depend
    on agent quality).
    """
    key = (scale, n_items, seed)
    if key not in _WORLDS:
        vocab = "full" if scale == "full" else "mini"
        config = WorldConfig(vocab_scale=vocab, seed=seed)
        space = build_label_space(config.vocab_scale)
        zoo = build_zoo(config, space)
        dataset = generate_dataset(space, config, "mscoco2017", n_items)
        truth = GroundTruth(zoo, dataset, config)
        agent = make_agent(
            "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1
        )
        predictor = AgentPredictor(agent, len(zoo))
        _WORLDS[key] = (config, zoo, list(dataset), truth, predictor)
    return _WORLDS[key]


def run_service(
    scale: str,
    n_items: int,
    batch_size: int,
    max_wait: float,
    workers: int,
    rate: float | None = None,
):
    """Drive one service over the bench stream; returns its final snapshot.

    ``rate=None`` is the closed loop (submit as fast as possible);
    otherwise requests arrive open-loop at ``rate`` items/sec.
    """
    config, zoo, items, truth, predictor = build_world(scale, n_items)
    engine = LabelingEngine(zoo, predictor, config)
    service = LabelingService(
        engine,
        batch_size=batch_size,
        max_wait=max_wait,
        workers=workers,
        max_depth=max(len(items), 1),
        truth=truth,
    )
    gap = 1.0 / rate if rate else 0.0
    with service:
        futures = []
        for item in items:
            futures.append(service.submit(item))
            if gap:
                time.sleep(gap)
        service.drain()
        for future in futures:
            future.result()  # surface any worker failure
    return service.snapshot()


def closed_loop_items_per_second(
    scale: str, n_items: int, batch_size: int, workers: int, repeats: int = 3
) -> float:
    """Best-of-``repeats`` end-to-end service throughput, closed loop."""
    best = 0.0
    for _ in range(repeats):
        snapshot = run_service(scale, n_items, batch_size, 0.05, workers)
        best = max(best, snapshot.throughput)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default="smoke", choices=("smoke", "mini", "full")
    )
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--rates",
        default=None,
        help="comma-separated open-loop arrival rates, items/sec",
    )
    parser.add_argument(
        "--max-waits",
        default="0.005,0.02,0.05",
        help="comma-separated flush timers, seconds",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless batch-N/batch-1 reaches this ratio",
    )
    args = parser.parse_args(argv)

    smoke = args.scale == "smoke"
    n_items = args.items if args.items is not None else (32 if smoke else 128)
    repeats = args.repeats if args.repeats is not None else (1 if smoke else 3)
    rates = [
        float(r)
        for r in (args.rates or ("200" if smoke else "100,400,1600")).split(",")
    ]
    max_waits = [float(w) for w in args.max_waits.split(",")]

    # -- 1. closed loop: micro-batching vs per-item dispatch ----------------
    print(
        f"serving throughput (closed loop): scale={args.scale} items={n_items} "
        f"workers={args.workers}, unconstrained path"
    )
    per_item = closed_loop_items_per_second(
        args.scale, n_items, 1, args.workers, repeats
    )
    batched = closed_loop_items_per_second(
        args.scale, n_items, args.batch_size, args.workers, repeats
    )
    speedup = batched / per_item if per_item else float("inf")
    print(f"  batch_size=1   {per_item:10.1f} items/sec")
    print(
        f"  batch_size={args.batch_size:<4d}{batched:10.1f} items/sec  "
        f"-> {speedup:.2f}x"
    )

    # -- 2. open loop: latency across arrival rates and flush timers --------
    print(
        f"\nserving latency (open loop): batch={args.batch_size} "
        f"workers={args.workers}"
    )
    header = (
        f"{'rate/s':>8s} {'max_wait':>9s} {'wait p50':>9s} {'wait p99':>9s} "
        f"{'svc p99':>9s} {'items/s':>9s}  p99 bound"
    )
    print(header)
    bounded = True
    for rate in rates:
        for max_wait in max_waits:
            snapshot = run_service(
                args.scale, n_items, args.batch_size, max_wait, args.workers,
                rate=rate,
            )
            wait = snapshot.queue_wait
            ok = wait.p99 <= max_wait + P99_SLACK
            bounded &= ok
            print(
                f"{rate:8.0f} {max_wait * 1000:7.1f}ms {wait.p50 * 1000:7.2f}ms "
                f"{wait.p99 * 1000:7.2f}ms "
                f"{snapshot.service_time.p99 * 1000:7.2f}ms "
                f"{snapshot.throughput:9.1f}  "
                f"{'ok' if ok else 'EXCEEDED'}"
            )
    if not bounded:
        print(
            f"note: p99 queue wait exceeded max_wait + {P99_SLACK * 1000:.0f}ms "
            f"slack in some cells (offered load above service capacity)"
        )

    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(
            f"FAIL: micro-batching speedup {speedup:.2f}x below "
            f"required {args.assert_speedup:.2f}x"
        )
        return 1
    return 0


# -- bench-suite entry point -------------------------------------------------


def test_service_speedup_over_per_item_dispatch():
    """The tentpole's measurable claim, at full scale.

    Same service machinery on both sides — only the micro-batch size
    differs — so the ratio isolates what request coalescing buys: one
    stacked forward per scheduling round over the rows whose observation
    changed instead of one per item.
    """
    per_item = closed_loop_items_per_second("full", 128, 1, 2, repeats=2)
    batched = closed_loop_items_per_second("full", 128, 64, 2, repeats=2)
    assert batched >= TARGET_SPEEDUP * per_item, (
        f"micro-batched {batched:.0f} items/s vs per-item {per_item:.0f} "
        f"items/s ({batched / per_item:.2f}x < {TARGET_SPEEDUP}x)"
    )


if __name__ == "__main__":
    sys.exit(main())
