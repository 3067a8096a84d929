"""Tests for the metric registry, cost records and objective algebra."""

import numpy as np
import pytest

from repro.machine.configs import tiny_machine
from repro.models.cache_misses import CacheMissModel
from repro.models.combined import CombinedModel
from repro.models.instruction_count import InstructionCountModel
from repro.runtime.cost_engine import CostEngine
from repro.runtime.metrics import (
    COUNTER_CHANNEL,
    DEFAULT_WALL_TIME_POLICY,
    CostRecord,
    MetricSpec,
    WallTimePolicy,
    available_metrics,
    counter_metric_names,
    hardware_metric_names,
    metric_spec,
    model_metric_names,
    set_wall_time_policy,
)
from repro.runtime.objectives import (
    CustomObjective,
    MetricObjective,
    Objective,
    WeightedObjective,
    resolve_objective,
)
from repro.runtime.store import MemoryStore
from repro.wht.enumeration import enumerate_plans
from repro.wht.random_plans import random_plan, random_plans


class TestRegistry:
    def test_builtin_metrics_present(self):
        names = set(available_metrics())
        assert {
            "cycles",
            "instructions",
            "l1_misses",
            "l2_misses",
            "l1_accesses",
            "wall_time",
            "model_instructions",
            "model_l1_misses",
            "model_combined",
        } <= names

    def test_counter_metrics_all_come_from_one_measurement(self):
        for name in counter_metric_names():
            spec = metric_spec(name)
            assert spec.channel == COUNTER_CHANNEL
            assert spec.from_measurement is not None

    def test_kind_partitions(self):
        assert set(hardware_metric_names()) & set(model_metric_names()) == set()
        assert "wall_time" in hardware_metric_names()
        assert "model_combined" in model_metric_names()

    def test_unknown_metric_raises_with_options(self):
        with pytest.raises(KeyError, match="cycles"):
            metric_spec("zyzzles")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="channel"):
            MetricSpec(name="x", kind="hardware", channel="psychic", description="")
        with pytest.raises(ValueError, match="acquisition"):
            MetricSpec(name="x", kind="hardware", channel=COUNTER_CHANNEL, description="")
        with pytest.raises(ValueError, match="kind"):
            MetricSpec(
                name="x",
                kind="quantum",
                channel=COUNTER_CHANNEL,
                description="",
                from_measurement=lambda m: 0.0,
            )

    def test_counter_extractors_match_measurement(self, machine):
        measurement = machine.measure(random_plan(6, rng=0))
        for name in counter_metric_names():
            assert metric_spec(name).from_measurement(measurement) == float(
                getattr(measurement, name)
            )


class TestCostRecord:
    def test_mapping_protocol(self):
        record = CostRecord(plan_key="small[2]", values={"cycles": 10.0})
        assert record["cycles"] == 10.0
        assert "cycles" in record and "instructions" not in record
        assert record.metrics() == ("cycles",)
        assert list(record) == ["cycles"]

    def test_missing_metric_names_known_ones(self):
        record = CostRecord(plan_key="small[2]", values={"cycles": 10.0})
        with pytest.raises(KeyError, match="cycles"):
            record["instructions"]


class TestObjectives:
    def test_metric_objective(self):
        objective = MetricObjective("cycles")
        assert objective.metrics == ("cycles",)
        assert objective.value({"cycles": 3.5}) == 3.5
        assert objective.describe() == "cycles"

    def test_metric_objective_rejects_unknown(self):
        with pytest.raises(KeyError):
            MetricObjective("warp_factor")

    def test_weighted_objective_value_and_order(self):
        objective = WeightedObjective({"instructions": 1.0, "l1_misses": 0.05})
        assert objective.metrics == ("instructions", "l1_misses")
        assert objective.value({"instructions": 100.0, "l1_misses": 10.0}) == (
            1.0 * 100.0 + 0.05 * 10.0
        )

    def test_weighted_combined_matches_combined_model(self):
        model = CombinedModel(alpha=0.7, beta=0.3)
        objective = WeightedObjective.from_model(model)
        values = {"instructions": 123.0, "l1_misses": 45.0}
        assert objective.value(values) == model.value(123.0, 45.0)

    def test_weighted_objective_rejects_empty_and_unknown(self):
        with pytest.raises(ValueError):
            WeightedObjective({})
        with pytest.raises(KeyError):
            WeightedObjective({"warp_factor": 1.0})

    def test_custom_objective(self):
        cpi = CustomObjective(
            metric_names=("cycles", "instructions"),
            reducer=lambda values: values["cycles"] / values["instructions"],
            name="cpi",
        )
        assert cpi.value({"cycles": 10.0, "instructions": 4.0}) == 2.5
        assert "cpi" in cpi.describe()

    def test_resolve_objective(self):
        assert isinstance(resolve_objective("cycles"), MetricObjective)
        objective = MetricObjective("l1_misses")
        assert resolve_objective(objective) is objective
        weighted = resolve_objective(CombinedModel(alpha=0.5, beta=0.5))
        assert isinstance(weighted, WeightedObjective)
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_objective("warp_factor")
        with pytest.raises(TypeError):
            resolve_objective(42)

    def test_objective_base_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Objective().value({})


class TestEngineMultiMetric:
    def test_one_measurement_populates_every_counter_metric(self, machine):
        engine = CostEngine(machine)
        plan = random_plan(6, rng=1)
        records = engine.records([plan], counter_metric_names())
        assert engine.measured == 1
        reference = tiny_machine(noise_sigma=0.0).measure(plan)
        for name in counter_metric_names():
            assert records[0][name] == float(getattr(reference, name))
        # Any subset of already-measured metrics is free.
        engine.records([plan], ("instructions",))
        engine.records([plan], ("l2_misses", "cycles"))
        assert engine.measured == 1

    def test_new_counter_metric_on_measured_plan_is_free(self, machine):
        engine = CostEngine(machine)
        plan = random_plan(6, rng=2)
        engine(plan)  # default objective: cycles
        assert engine.measured == 1
        records = engine.records([plan], ("l1_misses", "l1_accesses"))
        assert engine.measured == 1
        assert set(records[0].metrics()) == {"l1_misses", "l1_accesses"}

    def test_model_metrics_never_touch_the_machine(self, machine):
        engine = CostEngine(machine)
        plans = random_plans(6, 8, rng=3)
        records = engine.records(
            plans, ("model_instructions", "model_l1_misses", "model_combined")
        )
        assert engine.measured == 0
        instruction_model = InstructionCountModel(machine.config.instruction_model)
        miss_model = CacheMissModel.from_machine_config(machine.config, level="l1")
        combined = CombinedModel()
        for plan, record in zip(plans, records):
            instructions = instruction_model.count(plan)
            misses = miss_model.misses(plan)
            assert record["model_instructions"] == float(instructions)
            assert record["model_l1_misses"] == float(misses)
            assert record["model_combined"] == combined.value(instructions, misses)

    def test_wall_time_metric_measures_on_its_own_channel(self, machine):
        engine = CostEngine(machine)
        plan = random_plan(5, rng=4)
        record = engine.records([plan], ("wall_time",))[0]
        assert record["wall_time"] > 0.0
        assert engine.measured == 1
        # Cached: a second request performs no further execution.
        again = engine.records([plan], ("wall_time",))[0]
        assert again["wall_time"] == record["wall_time"]
        assert engine.measured == 1

    def test_objective_costs_share_the_record_cache(self, machine):
        store = MemoryStore()
        engine = CostEngine(machine, store=store)
        plan = random_plan(6, rng=5)
        engine.cost("cycles")(plan)
        assert engine.measured == 1
        # A different objective over counter metrics re-measures nothing.
        engine.cost(WeightedObjective.combined())(plan)
        engine.cost("l2_misses")(plan)
        assert engine.measured == 1

    def test_known_metrics_introspection(self, machine):
        engine = CostEngine(machine)
        plan = random_plan(6, rng=6)
        assert engine.known_metrics(plan) == ()
        engine(plan)
        assert "cycles" in engine.known_metrics(plan)


class TestCompositeObjectiveRanking:
    def test_composite_reproduces_combined_model_ranking_enumerated(self, machine):
        """Acceptance: the model-metric composite objective must reproduce the
        combined-model ranking from repro.models.combined over the enumerated
        space (n <= 6 here; the CI perf-smoke gate covers n <= 8)."""
        engine = CostEngine(machine)
        objective = WeightedObjective.model_combined(alpha=1.0, beta=0.05)
        cost = engine.cost(objective)
        instruction_model = InstructionCountModel(machine.config.instruction_model)
        miss_model = CacheMissModel.from_machine_config(machine.config, level="l1")
        combined = CombinedModel(alpha=1.0, beta=0.05)
        for n in range(1, 7):
            plans = list(enumerate_plans(n))
            engine_values = cost.batch(plans)
            reference = [
                combined.value(instruction_model.count(plan), miss_model.misses(plan))
                for plan in plans
            ]
            assert engine_values == reference  # exact, hence same ranking
            assert list(np.argsort(engine_values, kind="stable")) == list(
                np.argsort(reference, kind="stable")
            )
        assert engine.measured == 0  # ranking needed zero hardware measurements


class TestWallTimePolicy:
    def test_default_policy_registered_on_the_spec(self):
        spec = metric_spec("wall_time")
        assert spec.policy == DEFAULT_WALL_TIME_POLICY
        assert spec.policy.repetitions == 5
        assert spec.policy.trim_fraction == 0.2
        assert not spec.deterministic

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            WallTimePolicy(repetitions=0)
        with pytest.raises(ValueError):
            WallTimePolicy(trim_fraction=0.5)
        with pytest.raises(ValueError):
            WallTimePolicy(trim_fraction=-0.1)

    def test_set_wall_time_policy_replaces_the_spec(self):
        original = metric_spec("wall_time")
        try:
            spec = set_wall_time_policy(WallTimePolicy(repetitions=1, trim_fraction=0.0))
            assert metric_spec("wall_time") is spec
            assert spec.policy.repetitions == 1
        finally:
            set_wall_time_policy(original.policy)
        assert metric_spec("wall_time").policy == DEFAULT_WALL_TIME_POLICY

    def test_set_wall_time_policy_rejects_non_policy(self):
        with pytest.raises(TypeError):
            set_wall_time_policy("median")

    def test_policy_measure_runs_the_plan(self, machine):
        value = WallTimePolicy(repetitions=3, trim_fraction=0.0).measure(
            machine, random_plan(5, rng=0)
        )
        assert value > 0.0

    def test_trimmed_mean_drops_outliers(self, machine, monkeypatch):
        """Five repetitions at 20% trim drop exactly the min and the max."""
        times = iter([0.0, 1.0, 2.0, 99.0, 100.0, 104.0, 105.0, 109.0, 110.0, 112.0])
        monkeypatch.setattr(
            "repro.machine.machine.time.perf_counter", lambda: next(times)
        )
        value = machine.measure_wall_time(
            random_plan(4, rng=1), repetitions=5, trim_fraction=0.2
        )
        # Deltas are 1, 97, 4, 4, 2 -> trimmed mean of (2, 4, 4) = 10/3.
        assert value == pytest.approx(10.0 / 3.0)

    def test_trim_none_keeps_the_median(self, machine, monkeypatch):
        times = iter([0.0, 1.0, 2.0, 99.0, 100.0, 105.0])
        monkeypatch.setattr(
            "repro.machine.machine.time.perf_counter", lambda: next(times)
        )
        value = machine.measure_wall_time(random_plan(4, rng=1), repetitions=3)
        # Deltas are 1, 97, 5 -> median 5.
        assert value == 5.0

    def test_wall_records_never_persist(self, machine):
        engine = CostEngine(machine, store=MemoryStore())
        plan = random_plan(5, rng=2)
        engine.records([plan], ("wall_time",))
        assert engine.store.get_cost_records(engine.key) == {}
