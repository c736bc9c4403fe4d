"""Microbenchmarks of the core hot paths.

These are true pytest-benchmark timings (many rounds): recording a
64-item batch through the whole zoo, the ground-truth replay step,
Algorithm 1 scheduling of one item, Algorithm 2 scheduling of one item, a
full Q-greedy rollout, and the dispatch tick — a 16-item batch scheduled
via the per-item serial loop vs the vectorized ``schedule_batch`` (one
stacked forward per round over the rows whose observation changed, plus a
masked argmax).
"""

from conftest import shared_context

from repro.core.state import LabelingState
from repro.data.streams import iid_stream
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import QGreedyPolicy
from repro.zoo.oracle import GroundTruth


def _setup():
    ctx = shared_context()
    truth = ctx.ensure_truth("mscoco2017")
    item_id = ctx.eval_ids("mscoco2017", 5)[0]
    predictor = ctx.predictor("mscoco2017", "dueling_dqn")
    return ctx, truth, item_id, predictor


def test_record_batch_64_items(benchmark):
    """The zoo executed once per batch, straight into columnar records.

    The batch's (model, item) streams are seeded in one vectorised pass;
    median ~10.3 ms per batch (~161 us/item) on a 2-CPU x86 box.
    """
    ctx = shared_context()
    world = ctx.scale.world
    items = list(iid_stream(ctx.space, world, "mscoco2017", 64, start_index=50_000))
    truth = GroundTruth(ctx.zoo, [], world)

    def run():
        records = truth.record_batch(items)
        truth.release_many(record.item.item_id for record in records)
        return records

    assert len(benchmark(run)) == 64 and len(truth) == 0


def test_state_execute_all_models(benchmark):
    ctx, truth, item_id, _ = _setup()

    def run():
        state = LabelingState(truth, item_id)
        for j in range(len(ctx.zoo)):
            state.execute(j)
        return state.value

    benchmark(run)


def test_algorithm1_schedule_one_item(benchmark):
    _, truth, item_id, predictor = _setup()
    scheduler = CostQGreedyScheduler(predictor)
    benchmark(lambda: scheduler.schedule(truth, item_id, 1.0))


def test_algorithm2_schedule_one_item(benchmark):
    _, truth, item_id, predictor = _setup()
    scheduler = MemoryDeadlineScheduler(predictor)
    benchmark(lambda: scheduler.schedule(truth, item_id, 1.0, 12000.0))


def test_qgreedy_full_rollout(benchmark):
    _, truth, item_id, predictor = _setup()
    policy = QGreedyPolicy(predictor)
    benchmark(lambda: policy.schedule(truth, item_id))


def _batch_setup(n_items: int = 16):
    ctx = shared_context()
    truth = ctx.ensure_truth("mscoco2017")
    ids = ctx.eval_ids("mscoco2017", n_items)
    predictor = ctx.predictor("mscoco2017", "dueling_dqn")
    return truth, ids, predictor


def test_algorithm1_serial_loop_batch16(benchmark):
    truth, ids, predictor = _batch_setup()
    scheduler = CostQGreedyScheduler(predictor)
    benchmark(lambda: [scheduler.schedule(truth, i, 1.0) for i in ids])


def test_algorithm1_dispatch_tick_batch16(benchmark):
    truth, ids, predictor = _batch_setup()
    scheduler = CostQGreedyScheduler(predictor)
    benchmark(lambda: scheduler.schedule_batch(truth, ids, 1.0))


def test_algorithm2_serial_loop_batch16(benchmark):
    truth, ids, predictor = _batch_setup()
    scheduler = MemoryDeadlineScheduler(predictor)
    benchmark(lambda: [scheduler.schedule(truth, i, 1.0, 12000.0) for i in ids])


def test_algorithm2_dispatch_tick_batch16(benchmark):
    truth, ids, predictor = _batch_setup()
    scheduler = MemoryDeadlineScheduler(predictor)
    benchmark(lambda: scheduler.schedule_batch(truth, ids, 1.0, 12000.0))
