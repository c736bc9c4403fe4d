"""LabelingSpec: eager validation, regime derivation, grouping, spec= calls."""

import math
import time
from types import SimpleNamespace

import pytest

from repro import LabelingEngine, LabelingSpec
from repro.engine import make_backend
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService
from repro.serving.gateway import LabelingGateway
from repro.spec import REGIMES
from repro.zoo.oracle import GroundTruth


class TestValidation:
    """Constraints are rejected once, eagerly, at the API boundary."""

    def test_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline must be non-negative"):
            LabelingSpec(deadline=-0.1)

    def test_negative_memory_budget(self):
        with pytest.raises(ValueError, match="memory_budget must be non-negative"):
            LabelingSpec(deadline=0.5, memory_budget=-1.0)

    def test_memory_budget_requires_deadline(self):
        with pytest.raises(ValueError, match="requires a deadline"):
            LabelingSpec(memory_budget=8000.0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_models_below_one(self, bad):
        with pytest.raises(ValueError, match="max_models"):
            LabelingSpec(max_models=bad)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            LabelingSpec(policy="round_robin")

    def test_policy_missing_required_constraints(self):
        with pytest.raises(ValueError, match="requires a deadline"):
            LabelingSpec(policy="deadline")
        with pytest.raises(ValueError, match="memory_budget"):
            LabelingSpec(deadline=0.5, policy="deadline_memory")

    def test_zero_deadline_is_legal(self):
        # a zero budget schedules nothing but is not an error (matches the
        # schedulers' boundary semantics)
        assert LabelingSpec(deadline=0.0).regime == "deadline"

    def test_with_revalidates(self):
        spec = LabelingSpec(deadline=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            spec.with_(deadline=-1.0)
        assert spec.with_(priority=2).priority == 2

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            ({"deadline": "0.5"}, TypeError),
            ({"deadline": True}, TypeError),
            ({"deadline": math.nan}, ValueError),
            ({"deadline": math.inf}, ValueError),
            ({"deadline": 10**400}, ValueError),
            ({"deadline": 0.5, "memory_budget": [8000.0]}, TypeError),
            ({"deadline": 0.5, "memory_budget": math.nan}, ValueError),
            ({"max_models": 2.5}, TypeError),
            ({"max_models": True}, TypeError),
            ({"priority": "high"}, TypeError),
            ({"priority": 1.0}, TypeError),
            ({"priority": False}, TypeError),
        ],
    )
    def test_field_types_are_checked(self, kwargs, error):
        # The gateway builds specs from json.loads output, which yields
        # strings, bools, NaN and Infinity for the asking.
        with pytest.raises(error, match=next(reversed(kwargs))):
            LabelingSpec(**kwargs)
        with pytest.raises(error):
            LabelingSpec(deadline=0.5).with_(**kwargs)

    def test_numpy_scalars_are_numbers(self):
        import numpy as np

        spec = LabelingSpec(
            deadline=np.float64(0.5), max_models=np.int64(3), priority=np.int32(1)
        )
        assert spec.batch_key == ("deadline", 0.5)


class TestRegime:
    def test_derived_from_constraints(self):
        assert LabelingSpec().regime == "qgreedy"
        assert LabelingSpec(max_models=4).regime == "qgreedy"
        assert LabelingSpec(deadline=0.5).regime == "deadline"
        assert (
            LabelingSpec(deadline=0.5, memory_budget=8000.0).regime
            == "deadline_memory"
        )

    def test_policy_overrides_derivation(self):
        spec = LabelingSpec(deadline=0.5, policy="qgreedy")
        assert spec.regime == "qgreedy"
        pinned = LabelingSpec(deadline=0.5, memory_budget=8000.0, policy="deadline")
        assert pinned.regime == "deadline"

    def test_every_regime_name_is_legal_policy(self):
        for regime in REGIMES:
            spec = LabelingSpec(deadline=0.5, memory_budget=8000.0, policy=regime)
            assert spec.regime == regime


class TestBatchKey:
    def test_same_constraints_group(self):
        assert LabelingSpec(deadline=0.5).batch_key == LabelingSpec(0.5).batch_key

    def test_different_regimes_split(self):
        keys = {
            LabelingSpec().batch_key,
            LabelingSpec(deadline=0.5).batch_key,
            LabelingSpec(deadline=0.5, memory_budget=8000.0).batch_key,
        }
        assert len(keys) == 3

    def test_different_deadline_classes_split(self):
        assert (
            LabelingSpec(deadline=0.3).batch_key
            != LabelingSpec(deadline=0.5).batch_key
        )

    def test_priority_is_not_part_of_the_key(self):
        # priorities order admission; they do not change scheduling, so
        # mixed-priority requests may share a batch
        assert (
            LabelingSpec(deadline=0.5, priority=0).batch_key
            == LabelingSpec(deadline=0.5, priority=9).batch_key
        )

    def test_irrelevant_constraints_excluded(self):
        # a qgreedy-policy spec ignores its deadline, so two of them with
        # different (ignored) deadlines still batch together
        assert (
            LabelingSpec(deadline=0.3, policy="qgreedy").batch_key
            == LabelingSpec(deadline=0.9, policy="qgreedy").batch_key
        )
        # but max_models matters in the qgreedy regime
        assert (
            LabelingSpec(max_models=3).batch_key != LabelingSpec(max_models=4).batch_key
        )

    def test_keys_are_hashable_and_stable(self):
        spec = LabelingSpec(deadline=0.5, memory_budget=8000.0)
        assert hash(spec.batch_key) == hash(spec.with_(priority=5).batch_key)

    def test_tenant_is_not_part_of_the_key(self):
        # tenancy is a fairness concern (the request queue's tenant
        # level), not a scheduling constraint: two tenants with the same
        # constraints share a batch key
        assert (
            LabelingSpec(deadline=0.5, tenant="a").batch_key
            == LabelingSpec(deadline=0.5, tenant="b").batch_key
        )


class TestTenant:
    def test_tenant_defaults_to_none_and_resolves(self):
        assert LabelingSpec().tenant is None
        assert LabelingSpec(tenant="acme").tenant == "acme"

    def test_cache_key_is_tenant_partitioned(self):
        # unlike batch_key, the cache key MUST include the tenant: cached
        # labels are tenant-visible state and may not leak across tenants
        a = LabelingSpec(deadline=0.5, tenant="a").cache_key("item-1")
        b = LabelingSpec(deadline=0.5, tenant="b").cache_key("item-1")
        anon = LabelingSpec(deadline=0.5).cache_key("item-1")
        assert len({a, b, anon}) == 3

    def test_same_tenant_same_constraints_share_cache(self):
        assert LabelingSpec(deadline=0.5, tenant="a").cache_key(
            "item-1"
        ) == LabelingSpec(deadline=0.5, tenant="a").cache_key("item-1")


@pytest.fixture(scope="module")
def engine(zoo, world_config, trained):
    return LabelingEngine(zoo, AgentPredictor(trained.agent, len(zoo)), world_config)


class TestResolve:
    """What a labeling call makes of its ``spec=`` argument."""

    def test_no_arguments_is_unconstrained(self, engine, splits, truth):
        _, test = splits
        (default,) = engine.label_batch(test.items[:1], truth=truth)
        (explicit,) = engine.label_batch(test.items[:1], LabelingSpec(), truth=truth)
        assert default.trace.executions == explicit.trace.executions

    def test_spec_passes_through_unchanged(self, engine):
        spec = LabelingSpec(deadline=0.5)
        assert LabelingService(engine, spec=spec).default_spec is spec
        assert LabelingService(engine).default_spec == LabelingSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.5},
            {"memory_budget": 8000.0},
            {"max_models": 3},
            {"priority": 1},
            {"policy": "qgreedy"},
        ],
    )
    def test_spec_plus_any_kwarg_conflicts(self, engine, splits, truth, kwargs):
        _, test = splits
        spec = LabelingSpec(deadline=0.5, memory_budget=8000.0)
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            engine.label_batch(test.items[:1], spec, truth=truth, **kwargs)

    def test_non_spec_rejected(self, engine, splits, truth):
        _, test = splits
        with pytest.raises(TypeError, match="LabelingSpec"):
            engine.label_batch(test.items[:1], {"deadline": 0.5}, truth=truth)
        # the positional slip label(item, 0.5): rejected at call time (no
        # next() needed), before the zoo ran on a caller-supplied truth
        shared = GroundTruth(engine.zoo, [], engine.world_config)
        with pytest.raises(TypeError, match="LabelingSpec"):
            engine.label_stream(test.items[:2], 0.5, truth=shared)
        with pytest.raises(TypeError, match="LabelingSpec"):
            engine.label_batch(test.items[:2], 0.5, truth=shared)
        assert len(shared) == 0
        with pytest.raises(TypeError, match="LabelingSpec"):
            LabelingService(engine, spec={"deadline": 0.5})
        with pytest.raises(TypeError, match="LabelingSpec"):
            LabelingService(engine).submit(test[0], {"deadline": 0.5})


class TestFrameworkSpecParity:
    """spec= is the one spelling, end to end."""

    def test_label_stream_conflict_raises_eagerly(self, engine, splits, truth):
        _, test = splits
        # no iteration: the conflict must surface at call time
        with pytest.raises(TypeError, match="deadline"):
            engine.label_stream(
                test[:5], LabelingSpec(deadline=0.4), deadline=0.4, truth=truth
            )


#: entry point -> call it with its positional payload plus a removed kwarg
_CALLS = {
    "engine.label_batch": lambda w, kw: w.engine.label_batch(w.items, **kw),
    "engine.label_stream": lambda w, kw: w.engine.label_stream(w.items, **kw),
    "LabelingService": lambda w, kw: LabelingService(w.engine, **kw),
    "submit": lambda w, kw: w.service.submit(w.items[0], **kw),
    "submit_many": lambda w, kw: w.service.submit_many(w.items, **kw),
    "make_backend": lambda w, kw: make_backend("process", **kw),
    "LabelingGateway": lambda w, kw: LabelingGateway(w.service, None, w.items, **kw),
}
REMOVED_SPELLINGS = [
    *(
        (entry, kwarg, value)
        for entry in list(_CALLS)[:3]  # the entry points that took constraints
        for kwarg, value in (
            ("deadline", 0.5),
            ("memory_budget", 8000.0),
            ("max_models", 3),
        )
    ),
    ("submit", "nowait", True),
    ("submit", "priority", 1),
    ("submit_many", "nowait", True),
    ("submit_many", "priority", 1),
    ("make_backend", "max_workers", 3),
    # the engine carries the backend; the service runs on it as built
    ("LabelingService", "backend", "process"),
    # fixed periods and caps, not options
    ("LabelingService", "expiry_interval", 0.05),
    ("LabelingGateway", "max_jobs_per_tenant", 3),
    ("LabelingGateway", "clock", time.monotonic),
]


class TestRemovedSpellings:
    """Every second spelling is gone, not deprecated: using one is an error."""

    @pytest.fixture(scope="class")
    def world(self, engine, splits):
        _, test = splits
        return SimpleNamespace(
            engine=engine,
            service=LabelingService(engine),
            items=test.items[:2],
        )

    @pytest.mark.parametrize("entry,kwarg,value", REMOVED_SPELLINGS)
    def test_removed_keyword_is_a_type_error(self, world, entry, kwarg, value):
        with pytest.raises(TypeError, match=kwarg):
            _CALLS[entry](world, {kwarg: value})

    def test_removed_names_are_gone(self, world):
        import repro
        import repro.engine
        import repro.spec

        for name in (
            "submit_async",
            "submit_nowait_async",
            "submit_many_async",
            "submit_many_nowait_async",
        ):
            assert not hasattr(world.service, name)
        assert not hasattr(LabelingSpec, "resolve")
        assert not hasattr(repro.spec, "validate_constraints")
        for module in (repro, repro.engine):
            assert not hasattr(module, "ThreadPoolBackend")
            assert not hasattr(module, "ThreadConfig")
