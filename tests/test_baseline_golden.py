"""Golden digests of the baselines' traces, byte for byte.

Each row pins one baseline run over a world's 40 test items with one
seeded instance shared across the items in order (the random baselines
draw from one stream, so an item's draws depend on the items before it):
sha256 over every execution's ``(model_index, start_time, finish_time,
marginal_value, new_labels)``.  ``mini`` is the session world of
``conftest.py``; ``full`` is the 30-model, 1104-label world.  A refactor
of how a baseline is built or driven must leave every row unchanged; a
change to what a baseline draws or scores changes rows on purpose and
says so.

Regenerate a row only after such a deliberate change, by printing
``digest(CASES[case](worlds[world]))`` from the test.
"""

from __future__ import annotations

import hashlib
import struct
from types import SimpleNamespace

import pytest

from repro.data.streams import chunked_stream
from repro.rl.agents import make_agent
from repro.scheduling.deadline import QGreedyDeadlineScheduler
from repro.scheduling.deadline_memory import RandomMemoryDeadlineScheduler
from repro.scheduling.explore_exploit import ExploreExploitPolicy
from repro.scheduling.optimal import SoloValuePredictor
from repro.scheduling.qgreedy import AgentPredictor, OraclePredictor, QGreedyPolicy
from repro.scheduling.random_policy import RandomOrderPredictor, RandomStepPredictor
from repro.scheduling.rules import RulePredictor
from repro.zoo.oracle import GroundTruth

DEADLINES = (0.1, 0.3, 1.0)
#: (time budget, memory budget) pairs for the random memory baseline.
MEMORY_BUDGETS = ((0.3, 4000.0), (1.0, 12000.0))


def digest(traces) -> str:
    """sha256 over each trace's executions, items in order."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.item_id.encode("utf-8") + b"\0")
        h.update(struct.pack("<q", len(trace.executions)))
        for e in trace.executions:
            h.update(
                struct.pack(
                    "<qdddq",
                    e.model_index,
                    e.start_time,
                    e.finish_time,
                    e.marginal_value,
                    e.new_labels,
                )
            )
    return h.hexdigest()


def _ordering(predictor, w, max_models=None):
    policy = QGreedyPolicy(predictor)
    return [policy.schedule(w.truth, i, max_models) for i in w.ids]


def _deadline(scheduler, w, budget):
    return [scheduler.schedule(w.truth, i, budget) for i in w.ids]


def _memory(w, budget, memory):
    scheduler = RandomMemoryDeadlineScheduler(seed=17)
    return [scheduler.schedule(w.truth, i, budget, memory) for i in w.ids]


def _explore_exploit(w):
    policy = ExploreExploitPolicy(explore_items=2)
    return [policy.process(w.stream_truth, chunk_item) for chunk_item in w.stream]


#: name -> the baseline's traces on a world.
CASES = {
    "random": lambda w: _ordering(RandomOrderPredictor(seed=5), w),
    "random_3": lambda w: _ordering(RandomOrderPredictor(seed=5), w, 3),
    "optimal": lambda w: _ordering(SoloValuePredictor(), w),
    "optimal_3": lambda w: _ordering(SoloValuePredictor(), w, 3),
    "rules": lambda w: _ordering(RulePredictor(seed=5), w),
    "rules_3": lambda w: _ordering(RulePredictor(seed=5), w, 3),
    "qgreedy_agent": lambda w: _ordering(w.agent, w),
    "qgreedy_agent_3": lambda w: _ordering(w.agent, w, 3),
    **{
        f"qgreedy_deadline_{budget:g}": (
            lambda w, budget=budget: _deadline(
                QGreedyDeadlineScheduler(OraclePredictor(w.truth)), w, budget
            )
        )
        for budget in DEADLINES
    },
    **{
        f"random_deadline_{budget:g}": (
            lambda w, budget=budget: _deadline(
                QGreedyDeadlineScheduler(RandomStepPredictor(seed=31)), w, budget
            )
        )
        for budget in DEADLINES
    },
    **{
        f"random_memory_{budget:g}_{memory:g}": (
            lambda w, budget=budget, memory=memory: _memory(w, budget, memory)
        )
        for budget, memory in MEMORY_BUDGETS
    },
    "explore_exploit": _explore_exploit,
}

#: "world/case" -> digest of the case's traces.
GOLDEN = {
    "mini/random": "d488bffaf62d6614846d60360a5436d90666f6e1c23a3dd785395be35637feb8",
    "mini/random_3": "b7975cbd1fc6108f66a2cb70410c95003d129c895669b3c9a017e13b63c32a43",
    "mini/optimal": "2d4b8f5d75e17b71bdfc8b8f933a132bc9cc9e54ca7d9088e30a4a3f63f8662b",
    "mini/optimal_3": "720e4beb8b0e4ca3d228852659851644ac5c87cdcd294654a917207080eace85",
    "mini/rules": "a4ad2526c14707c76423197bd0ea2ca60de5d3902c5a7d0960b9839a93fabd51",
    "mini/rules_3": "58b02b8e46ffb16d0fe82ed0b03866e8db8e1b8c4d3adeeee01fbd955509a43f",
    "mini/qgreedy_agent": "e72979a8c07e67f2f1bbbc1c27386806c0b152b6d22c520cccb48c7536271d05",
    "mini/qgreedy_agent_3": "61dd8e6e9f2ba8cbc501a5775fe7c6a2e41e48ecc90ed2b517a9353e178dd675",
    "mini/qgreedy_deadline_0.1": "4aaa79ea45de7ac962801d089c3caf4b59cd6ab1229d149f946e599b1904be09",
    "mini/qgreedy_deadline_0.3": "94d14e37209a415cbfbe88e1ffbdbf88640a46d1b99ba1ab57fb322d71204379",
    "mini/qgreedy_deadline_1": "2d4b8f5d75e17b71bdfc8b8f933a132bc9cc9e54ca7d9088e30a4a3f63f8662b",
    "mini/random_deadline_0.1": "37561b3e8249bdc6c4ab746f66d586d79265de097feed565dd773986453d06a6",
    "mini/random_deadline_0.3": "881738bd795e1c2b29b81e694ab5433f251e76834028e79dbcbaa559b9035fe0",
    "mini/random_deadline_1": "308ade93de522c583cab4df1684135c2266c7faa531500c884737b4101415aa8",
    "mini/random_memory_0.3_4000": "61fd161db0ce1c7737e1564556e869225b5386a6518fddcecc0202fd4dda5dfc",
    "mini/random_memory_1_12000": "fc33815858e8f780cd2eb608b0e50c57c8d3dfd53f27d99104d269e1ba3c7bdb",
    "mini/explore_exploit": "f7f51a3b5b5c6926dca42f59d850e5f6e2085aaaa88a4c1dda6ac643b5acde19",
    "full/random": "6f543a4dea53be0939dbbb06927caf4a329d4059e0704140b056deadc3744894",
    "full/random_3": "72f81236cfc95c0f9c402119ab581898765a5df1cf10f8487d42eaecc529b914",
    "full/optimal": "68a05542b8082a427ba60f0ef1e3abacace8e11e9998b0e2a6500cba75827d09",
    "full/optimal_3": "dc6c7cb0df39137ad355f5fc86586cb731bff5c3f64816cf9154855de5b196eb",
    "full/rules": "17cfae6bca5a6ca7822fba49301a0616f6fa07804a30f1f9b9af1b9621a384e0",
    "full/rules_3": "7b1013ef0b3b61b7df92d35da795f741cffb3aa77ba8fd192abd6174553e8d3d",
    "full/qgreedy_agent": "3bf7383c25053dc04e3dd4071099c37ed5c0317ab77efe341c16118f708d0940",
    "full/qgreedy_agent_3": "69534fd9207adffa478b84f51486ba2faa5a0b8fa13531af09d542da9cbc2b7f",
    "full/qgreedy_deadline_0.1": "d7a05667a40c0c539d6ced67aa5f2d80e6f81b980b73eb2349e2ba70f4304fc5",
    "full/qgreedy_deadline_0.3": "39788cfd3709de23c13c269866f615071fd86f99ba04cdb694a39729777622ef",
    "full/qgreedy_deadline_1": "6e45939fb232fb3eb2bdc892813e0172af1db2ec186c6f143897197287a03d66",
    "full/random_deadline_0.1": "6a9be2b0f7e5571edeb8489fd578cc8017ab5dfc0f461c52e8640206049e47b7",
    "full/random_deadline_0.3": "afc2008ba211d94137ee85672311943d09ceb7c9a761b54d741f5a5c52d64508",
    "full/random_deadline_1": "47c029af83e05b855c40177f75f5a78df5361affaa3253108107b7854018d2d4",
    "full/random_memory_0.3_4000": "a98d5e8da4403ce63c1290d2bb9955b49c588d816b1a95d2e5a511bca5d72a6d",
    "full/random_memory_1_12000": "a45fe0c2f55a9b29f7de4c93b5d7ae902a66b3109b633dd296b89dd70572d931",
    "full/explore_exploit": "842b5e8fb12ce7b9e834ac96f52a1a5a4d9c0bc5cc5091adde69786961ebfcc8",
}


def _world(truth, ids, agent, space, config) -> SimpleNamespace:
    stream = list(
        chunked_stream(space, config, "mscoco2017", n_chunks=6, chunk_length=8, seed=9)
    )
    return SimpleNamespace(
        truth=truth,
        ids=ids,
        agent=agent,
        stream=stream,
        stream_truth=GroundTruth(truth.zoo, [ci.item for ci in stream], config),
    )


@pytest.fixture(scope="module")
def worlds(truth, test_item_ids, trained, zoo, space, world_config, full_world):
    full_zoo = full_world.truth.zoo
    untrained = make_agent(
        "dueling_dqn", len(full_zoo.space), len(full_zoo) + 1, hidden_size=64
    )
    return {
        "mini": _world(
            truth,
            test_item_ids,
            AgentPredictor(trained.agent, len(zoo)),
            space,
            world_config,
        ),
        "full": _world(
            full_world.truth,
            full_world.test_ids,
            AgentPredictor(untrained, len(full_zoo)),
            full_world.space,
            full_world.config,
        ),
    }


@pytest.mark.parametrize("world", ["mini", "full"])
@pytest.mark.parametrize("case", list(CASES))
def test_baseline_traces_match_golden(worlds, world, case):
    assert digest(CASES[case](worlds[world])) == GOLDEN[f"{world}/{case}"]
