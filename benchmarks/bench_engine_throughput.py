"""Throughput of the labeling engine's execution backends.

Measures labeled items/sec on the scheduling hot path (the ground truth is
pre-recorded — recording cost is identical across backends) and reports
each backend's speedup over per-item serial labeling.  The headline number
is the batched backend at batch size 64 on the unconstrained Q-greedy
path: one stacked Q-network forward per scheduling round over the rows
whose observation changed instead of one forward per item per step.

Run standalone (the CI smoke path uses a tiny world)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --scale mini --items 64

or through pytest-benchmark with the rest of the bench suite.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import BACKEND_REGISTRY, LabelingEngine
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth

#: The acceptance bar: batched vs per-item items/sec on the Q-greedy path.
TARGET_SPEEDUP = 3.0

_WORLDS: dict[tuple, tuple] = {}


def build_world(scale: str = "mini", n_items: int = 64, seed: int = 20200208):
    """(config, zoo, items, truth, predictor) for one bench world, cached.

    Throughput does not depend on agent quality (every forward costs the
    same), so the predictor wraps a freshly initialized network and the
    bench skips training entirely.
    """
    key = (scale, n_items, seed)
    if key not in _WORLDS:
        config = WorldConfig(vocab_scale=scale, seed=seed)
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


def items_per_second(
    backend: str,
    scale: str = "mini",
    n_items: int = 64,
    batch_size: int = 64,
    deadline: float | None = None,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` labeling throughput of one backend."""
    config, zoo, items, truth, predictor = build_world(scale, n_items)
    engine = LabelingEngine(
        zoo, predictor, config, backend=backend, batch_size=batch_size
    )
    spec = LabelingSpec(deadline=deadline)
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.label_batch(items, spec, truth=truth)
            best = min(best, time.perf_counter() - start)
        return len(items) / best
    finally:
        close = getattr(engine.backend, "close", None)
        if close is not None:
            close()


# -- pytest-benchmark entry points ------------------------------------------


def _bench(benchmark, backend: str):
    config, zoo, items, truth, predictor = build_world("mini", 64)
    engine = LabelingEngine(zoo, predictor, config, backend=backend, batch_size=64)
    benchmark(lambda: engine.label_batch(items, truth=truth))


def test_serial_backend_throughput(benchmark):
    _bench(benchmark, "serial")


def test_batched_backend_throughput(benchmark):
    _bench(benchmark, "batched")


def test_batched_speedup_over_per_item():
    """The tentpole's measurable claim: batching beats per-item labeling.

    Measured at full scale (1104-dim observations, 30 models), where the
    Q-network forward dominates the scheduling step — the regime the
    production north star cares about.  The mini world's forward is too
    small for batching to amortize much (~2x there).
    """
    serial = items_per_second("serial", scale="full")
    batched = items_per_second("batched", scale="full")
    assert batched >= TARGET_SPEEDUP * serial, (
        f"batched {batched:.0f} items/s vs serial {serial:.0f} items/s "
        f"({batched / serial:.2f}x < {TARGET_SPEEDUP}x)"
    )


# -- standalone / CI smoke ---------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="mini", choices=("mini", "full"))
    parser.add_argument("--items", type=int, default=64)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless batched/serial reaches this ratio",
    )
    args = parser.parse_args(argv)

    rates = {
        name: items_per_second(
            name,
            scale=args.scale,
            n_items=args.items,
            batch_size=args.batch_size,
            deadline=args.deadline,
            repeats=args.repeats,
        )
        # The cluster backend needs a worker fleet and measures dispatch
        # overlap, not single-host scheduling; bench_cluster_scaling.py
        # owns that comparison.
        for name in sorted(BACKEND_REGISTRY)
        if name != "cluster"
    }
    regime = "unconstrained" if args.deadline is None else f"deadline={args.deadline}"
    print(
        f"engine throughput: scale={args.scale} items={args.items} "
        f"batch={args.batch_size} regime={regime}"
    )
    print(f"{'backend':10s} {'items/sec':>12s} {'vs serial':>10s}")
    for name, rate in sorted(rates.items(), key=lambda kv: kv[1]):
        print(f"{name:10s} {rate:12.1f} {rate / rates['serial']:9.2f}x")

    speedup = rates["batched"] / rates["serial"]
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(
            f"FAIL: batched speedup {speedup:.2f}x below "
            f"required {args.assert_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
