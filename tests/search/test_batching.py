"""Tests for batched candidate evaluation across the search strategies."""

import pytest

from repro.models.instruction_count import InstructionCountModel
from repro.runtime.cost_engine import CostEngine
from repro.runtime.objectives import WeightedObjective
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.pruned import ModelPrunedSearch
from repro.search.random_search import RandomSearch
from repro.util.batching import evaluate_cost_batch
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.dp_search import DPSearch
from repro.wht.random_plans import random_plans


@pytest.fixture
def model_cost(machine):
    """The analytic instruction count, bound to a fresh engine."""
    return CostEngine(machine).cost("model_instructions")


class TestEvaluateCostBatch:
    def test_loop_fallback_for_plain_callables(self):
        model = InstructionCountModel()
        seen = []

        def cost(plan):
            seen.append(plan)
            return float(model.count(plan))

        plans = random_plans(6, 5, rng=0)
        values = evaluate_cost_batch(cost, plans)
        assert seen == plans
        assert values == [float(model.count(p)) for p in plans]

    def test_batch_method_is_used(self, model_cost):
        plans = random_plans(6, 5, rng=0)
        values = evaluate_cost_batch(model_cost, plans)
        assert values == [float(InstructionCountModel().count(p)) for p in plans]
        assert model_cost.engine.scored == len(plans)

    def test_batch_and_loop_agree_for_model_costs(self, machine):
        plans = random_plans(8, 10, rng=1)
        for objective in ("model_instructions", WeightedObjective.model_combined()):
            batched = evaluate_cost_batch(CostEngine(machine).cost(objective), plans)
            scalar = CostEngine(machine).cost(objective)
            loop = [float(scalar(p)) for p in plans]
            assert batched == loop


class TestOversizedPlans:
    """Model scores fall back to the scalar models beyond the encoder range."""

    def test_model_cost_batch_beyond_encoder_range(self, model_cost):
        from repro.wht.plan import Small, Split

        plan = Split((Small(8),) * 5)  # n = 40 > MAX_ENCODABLE_EXPONENT
        values = evaluate_cost_batch(model_cost, [plan])
        assert values == [float(InstructionCountModel().count(plan))]
        assert model_cost.evaluations == 1

    def test_random_search_beyond_encoder_range(self, model_cost):
        result = RandomSearch(model_cost, samples=3).search(33, rng=0)
        assert result.best_plan.n == 33


class TestCounterSplit:
    def test_cycles_cost_measures_each_distinct_plan_once(self, machine):
        cost = CostEngine(machine).cost("cycles")
        cost(iterative_plan(5))
        cost.batch([iterative_plan(5), right_recursive_plan(5)])
        assert cost.evaluations == 3
        assert cost.measured == 2  # the repeated plan is served from the record cache

    def test_model_costs_count_requests_not_measurements(self, model_cost):
        model_cost.batch(random_plans(6, 4, rng=2))
        assert model_cost.evaluations == 4
        assert model_cost.measured == 0  # analytic: the machine never ran


class TestDPSearchBatching:
    def test_batched_cost_receives_each_round_once(self, model_cost):
        model = InstructionCountModel()
        rounds = []

        class RecordingCost:
            evaluations = 0

            def __call__(self, plan):
                raise AssertionError("batch must be used")

            def batch(self, plans):
                rounds.append(list(plans))
                self.evaluations += len(plans)
                return model.count_batch(plans).astype(float)

        result = DPSearch(RecordingCost(), max_children=2).search(6)
        assert len(rounds) == 6  # one batch per exponent
        reference = DPSearch(model_cost, max_children=2).search(6)
        assert result.best_plans == reference.best_plans
        assert result.best_costs == reference.best_costs

    def test_record_candidates_false_stays_bounded(self, model_cost):
        searcher = DPSearch(model_cost, record_candidates=False)
        result = searcher.search(8)
        assert result.candidates == ()
        assert result.candidates_for(8) == []
        assert result.evaluations > 0
        assert 8 in result.best_plans

    def test_candidates_indexed_by_exponent(self, model_cost):
        result = DPSearch(model_cost).search(5)
        assert set(result.candidates_by_exponent) == set(range(1, 6))
        flat = result.candidates
        assert isinstance(flat, tuple)
        assert result.evaluations == len(flat)
        # Flattened order is evaluation order: exponents ascend.
        assert [c.exponent for c in flat] == sorted(c.exponent for c in flat)


class TestStrategiesBatchVsLoop:
    """Batch-capable costs and plain callables must give identical searches."""

    def test_random_search_identical(self, model_cost):
        batched = RandomSearch(model_cost, samples=40).search(7, rng=5)
        model = InstructionCountModel()
        loop = RandomSearch(lambda plan: float(model.count(plan)), samples=40).search(
            7, rng=5
        )
        assert batched.best_plan == loop.best_plan
        assert batched.history == loop.history

    def test_exhaustive_identical_across_batch_sizes(self, model_cost):
        big = ExhaustiveSearch(model_cost).search(5)
        small = ExhaustiveSearch(model_cost, batch_size=7).search(5)
        model = InstructionCountModel()
        loop = ExhaustiveSearch(lambda plan: float(model.count(plan))).search(5)
        assert big.history == small.history == loop.history

    def test_pruned_search_identical(self, machine, model_cost):
        report_batched = ModelPrunedSearch(
            model_cost=model_cost,
            measure_cost=CostEngine(machine),
            samples=50,
            keep_fraction=0.3,
        ).search(7, rng=9)
        model = InstructionCountModel()
        report_loop = ModelPrunedSearch(
            model_cost=lambda plan: float(model.count(plan)),
            measure_cost=CostEngine(machine),
            samples=50,
            keep_fraction=0.3,
        ).search(7, rng=9)
        assert report_batched.result.best_plan == report_loop.result.best_plan
        assert report_batched.result.history == report_loop.result.history
        assert report_batched.threshold == report_loop.threshold

    def test_pruned_search_reports_actual_measurements_with_engine(self, tiny_config):
        from repro.machine.machine import SimulatedMachine

        engine = CostEngine(SimulatedMachine(tiny_config))
        search = ModelPrunedSearch(
            model_cost=engine.cost("model_instructions"),
            measure_cost=engine,
            samples=50,
            keep_fraction=0.3,
        )
        first = search.search(7, rng=4)
        assert first.measured_evaluations == first.result.evaluated
        second = search.search(7, rng=4)  # same candidates: all cache hits
        assert second.measured_evaluations == 0
        assert second.result.best_cost == first.result.best_cost


def test_dp_search_raises_when_every_cost_is_nan():
    with pytest.raises(RuntimeError):
        DPSearch(lambda plan: float("nan")).search(3)


def test_dp_search_result_evaluations_counts_without_records(model_cost):
    with_records = DPSearch(model_cost).search(6)
    without = DPSearch(model_cost, record_candidates=False).search(6)
    assert without.evaluations == with_records.evaluations


def test_dp_best_plan_record_candidates_passthrough(machine):
    from repro.search.dp import dp_best_plan

    unrecorded = dp_best_plan(CostEngine(machine), 6, record_candidates=False)
    assert unrecorded.history == []
    assert unrecorded.evaluated > 0
    recorded = dp_best_plan(CostEngine(machine), 6)
    assert recorded.history  # the default path still records per-candidate history
    assert recorded.best_plan == unrecorded.best_plan
    assert recorded.evaluated == unrecorded.evaluated
