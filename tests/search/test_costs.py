"""Tests for the engine-bound costs every search strategy takes."""

import pytest

from repro.models.cache_misses import CacheMissModel
from repro.models.instruction_count import InstructionCountModel
from repro.runtime.cost_engine import CostEngine
from repro.runtime.objectives import WeightedObjective
from repro.wht.canonical import iterative_plan, left_recursive_plan, right_recursive_plan


class TestCyclesCost:
    def test_matches_machine(self, machine):
        cost = CostEngine(machine).cost("cycles")
        plan = iterative_plan(6)
        assert cost(plan) == pytest.approx(machine.measure(plan).cycles)

    def test_counts_evaluations(self, machine):
        cost = CostEngine(machine).cost("cycles")
        cost(iterative_plan(4))
        cost(iterative_plan(5))
        assert cost.evaluations == 2
        assert cost.measured == 2


class TestModelInstructionsCost:
    def test_matches_model(self, machine):
        cost = CostEngine(machine).cost("model_instructions")
        plan = right_recursive_plan(7)
        assert cost(plan) == float(InstructionCountModel().count(plan))

    def test_orders_canonicals(self, machine):
        cost = CostEngine(machine).cost("model_instructions")
        n = 8
        assert cost(iterative_plan(n)) < cost(right_recursive_plan(n)) < cost(left_recursive_plan(n))

    def test_counts_evaluations(self, machine):
        cost = CostEngine(machine).cost("model_instructions")
        for _ in range(3):
            cost(iterative_plan(5))
        assert cost.evaluations == 3
        assert cost.measured == 0


class TestModelCombinedCost:
    def test_miss_term_models_the_machine_l1(self, machine):
        cost = CostEngine(machine).cost("model_l1_misses")
        miss_model = CacheMissModel.from_machine_config(machine.config, level="l1")
        assert miss_model.capacity_elements == machine.config.l1.size_bytes // 8
        plan = right_recursive_plan(8)
        assert cost(plan) == pytest.approx(miss_model.misses(plan))

    def test_value_formula(self, machine):
        cost = CostEngine(machine).cost(WeightedObjective.model_combined(alpha=1.0, beta=2.0))
        miss_model = CacheMissModel.from_machine_config(machine.config, level="l1")
        plan = right_recursive_plan(8)
        expected = InstructionCountModel().count(plan) + 2.0 * miss_model.misses(plan)
        assert cost(plan) == pytest.approx(expected)

    def test_evaluation_counter(self, machine):
        cost = CostEngine(machine).cost(WeightedObjective.model_combined())
        cost(iterative_plan(6))
        assert cost.evaluations == 1
        assert cost.measured == 0


class TestWallTimeCost:
    def test_positive_and_counted(self, machine):
        cost = CostEngine(machine).cost("wall_time")
        assert cost(iterative_plan(5)) > 0.0
        assert cost.evaluations == 1
