"""Serving: an asyncio client driving the labeling service from an event loop.

Run with::

    python examples/serving_async.py

The :class:`~repro.serving.LabelingService` is front-end-agnostic: its
queue, micro-batcher, and result cache all operate on plain
``concurrent.futures`` futures, so an event-loop application — a web
handler, a websocket gateway — talks to the same service through
:meth:`~repro.serving.LabelingService.submit` /
:meth:`~repro.serving.LabelingService.submit_many` with
``wait="nowait"``, which admits without blocking the loop, and wraps the
returned futures with :func:`asyncio.wrap_future` to ``await`` them.

Two coroutines share one service here:

* a **camera feed** awaits items one at a time under a scheduling
  deadline — each frame's labels are consumed as soon as that frame
  resolves, while the service still coalesces frames into micro-batches
  behind the scenes;
* an **archive backfill** bulk-submits its whole slice unconstrained and
  gathers the results, then replays it to show repeat submissions being
  answered from the result cache without scheduling.

Everything runs on the mini world so the script finishes in seconds; no
threads appear in *this* file — concurrency on the client side is pure
asyncio (the service keeps its own dispatcher/worker threads inside).
"""

import asyncio

from repro.config import WorldConfig
from repro.data.datasets import generate_dataset
from repro.engine import LabelingEngine
from repro.labels import build_label_space
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth


async def camera_feed(service: LabelingService, frames) -> int:
    """Await one frame at a time, like a live handler would."""
    labeled = 0
    spec = LabelingSpec(deadline=0.25, priority=2)
    for frame in frames:
        result = await asyncio.wrap_future(service.submit(frame, spec, wait="nowait"))
        labeled += 1
        if labeled <= 3:  # show a few, stay quiet afterwards
            names = ", ".join(result.label_names[:4]) or "<nothing valuable>"
            print(f"  camera   {result.item_id}: {names}")
    return labeled


def gather(futures) -> asyncio.Future:
    """Await a list of service futures on the running loop."""
    return asyncio.gather(*map(asyncio.wrap_future, futures))


async def archive_backfill(service: LabelingService, items) -> tuple[int, int]:
    """Bulk-submit, gather, then replay the slice against the cache."""
    first = await gather(service.submit_many(items, wait="nowait"))
    again = await gather(service.submit_many(items, wait="nowait"))
    assert [r.item_id for r in again] == [r.item_id for r in first]
    return len(first), len(again)


async def main_async() -> None:
    # 1. World + engine (mini world, untrained agent: serving mechanics
    # do not depend on agent quality).
    config = WorldConfig(vocab_scale="mini", zoo_total_time=1.0)
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    dataset = generate_dataset(space, config, "mscoco2017", 48)
    truth = GroundTruth(zoo, dataset, config)
    agent = make_agent("dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1)
    engine = LabelingEngine(zoo, AgentPredictor(agent, len(zoo)), config)

    items = list(dataset)
    frames, archive = items[:16], items[16:]

    # 2. One service, two concurrent asyncio clients.  The result cache
    # answers the backfill's second pass without scheduling anything.
    service = LabelingService(
        engine,
        batch_size=8,
        max_wait=0.005,
        workers=2,
        truth=truth,
        cache_size=256,
    )
    with service:
        camera_done, (backfill_done, replayed) = await asyncio.gather(
            camera_feed(service, frames),
            archive_backfill(service, archive),
        )
        service.drain()

    print(f"  camera   labeled {camera_done} frames under deadline")
    print(f"  backfill labeled {backfill_done} items, replayed {replayed}")
    print()
    print(service.snapshot().format())


def main() -> None:
    asyncio.run(main_async())


if __name__ == "__main__":
    main()
