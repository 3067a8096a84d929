"""Tests for the search strategies (random, exhaustive, DP wrapper, pruned)."""

import pytest

from repro.runtime.cost_engine import CostEngine
from repro.search.dp import dp_best_plan, dp_search
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.pruned import ModelPrunedSearch
from repro.search.random_search import RandomSearch
from repro.search.result import SearchResult
from repro.util.rng import as_generator
from repro.wht.encoding import plan_key
from repro.wht.enumeration import count_plans
from repro.wht.plan import validate_plan
from repro.wht.random_plans import RSUSampler


@pytest.fixture
def model_cost(machine):
    """The analytic instruction count, bound to a fresh engine."""
    return CostEngine(machine).cost("model_instructions")


def pruned(machine, **options):
    """A model-pruned search whose two stages share one fresh engine."""
    engine = CostEngine(machine)
    return ModelPrunedSearch(
        model_cost=engine.cost("model_instructions"), measure_cost=engine, **options
    )


def scalar_draw(n, count, seed, max_children=None):
    """The historical one-plan-at-a-time RSU draw, deduplicated in draw order."""
    sampler = RSUSampler(max_children=max_children)
    generator = as_generator(seed)
    plans = {}
    for _ in range(count):
        plan = sampler.sample(n, generator)
        plans.setdefault(plan_key(plan), plan)
    return list(plans.values())


class TestSearchResult:
    def test_top_orders_by_cost(self, model_cost):
        result = RandomSearch(model_cost, samples=30).search(6, rng=0)
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] <= top[1][1] <= top[2][1]
        assert top[0][1] == result.best_cost

    def test_describe_mentions_strategy(self, model_cost):
        result = RandomSearch(model_cost, samples=5).search(5, rng=0)
        assert "random" in result.describe()

    def test_evaluation_fraction(self):
        result = SearchResult(
            n=5, best_plan=None, best_cost=0.0, evaluated=5, considered=20, strategy="x"
        )
        assert result.evaluation_fraction == pytest.approx(0.25)


class TestRandomSearch:
    def test_finds_valid_plan(self, machine):
        result = RandomSearch(CostEngine(machine), samples=25).search(7, rng=1)
        validate_plan(result.best_plan)
        assert result.best_plan.n == 7
        assert result.strategy == "random"

    def test_deterministic_given_seed(self, machine):
        a = RandomSearch(CostEngine(machine), samples=20).search(8, rng=42)
        b = RandomSearch(CostEngine(machine), samples=20).search(8, rng=42)
        assert a.best_plan == b.best_plan

    def test_deduplication(self, model_cost):
        result = RandomSearch(model_cost, samples=200, dedupe=True).search(3, rng=0)
        # Only 6 distinct plans exist at size 2^3.
        assert result.evaluated <= 6
        assert result.considered == 200

    @pytest.mark.parametrize("max_children", [None, 2])
    @pytest.mark.parametrize("n, samples, seed", [(3, 200, 0), (8, 100, 7)])
    def test_history_is_the_scalar_draw(self, model_cost, n, samples, seed, max_children):
        result = RandomSearch(model_cost, samples=samples, max_children=max_children).search(
            n, rng=seed
        )
        assert [plan for plan, _ in result.history] == scalar_draw(
            n, samples, seed, max_children
        )

    def test_more_samples_never_worse(self, model_cost):
        small = RandomSearch(model_cost, samples=5).search(8, rng=7)
        large = RandomSearch(model_cost, samples=100).search(8, rng=7)
        assert large.best_cost <= small.best_cost

    def test_invalid_configuration(self, model_cost):
        with pytest.raises(ValueError):
            RandomSearch(model_cost, samples=0)


class TestExhaustiveSearch:
    def test_space_size_matches_enumeration(self, model_cost):
        search = ExhaustiveSearch(model_cost)
        assert search.space_size(5) == count_plans(5)

    def test_finds_global_optimum_of_model(self, model_cost):
        result = ExhaustiveSearch(model_cost).search(5)
        assert result.evaluated == count_plans(5)
        # Exhaustive beats or matches any other strategy on the same cost.
        random_result = RandomSearch(model_cost, samples=50).search(5, rng=0)
        assert result.best_cost <= random_result.best_cost

    def test_limit_guard(self, model_cost):
        with pytest.raises(ValueError):
            ExhaustiveSearch(model_cost, limit=10).search(6)

    def test_history_complete(self, model_cost):
        result = ExhaustiveSearch(model_cost).search(4)
        assert len(result.history) == count_plans(4)


class TestDPSearchWrappers:
    def test_dp_search_with_model_cost(self, model_cost):
        result = dp_search(7, model_cost)
        assert 7 in result.best_plans

    def test_dp_best_plan_on_machine(self, machine):
        result = dp_best_plan(CostEngine(machine), 7)
        validate_plan(result.best_plan)
        assert result.strategy == "dynamic-programming"
        assert result.evaluated > 0
        assert result.n == 7

    def test_dp_best_beats_canonicals_on_its_cost(self, machine):
        from repro.wht.canonical import canonical_plans

        result = dp_best_plan(CostEngine(machine), 8)
        for name, plan in canonical_plans(8).items():
            assert result.best_cost <= machine.measure(plan).cycles * 1.001, name


class TestModelPrunedSearch:
    def test_basic_run(self, machine):
        report = pruned(machine, samples=60, keep_fraction=0.25).search(7, rng=0)
        validate_plan(report.result.best_plan)
        assert report.measured_evaluations <= report.model_evaluations
        assert 0.0 <= report.pruned_fraction <= 1.0
        assert report.result.strategy == "model-pruned"

    @pytest.mark.parametrize("max_children", [None, 2])
    def test_candidates_are_the_scalar_draw(self, machine, max_children):
        search = pruned(machine, samples=60, max_children=max_children)
        assert search.generate_candidates(7, rng=3) == scalar_draw(7, 60, 3, max_children)

    def test_pruning_saves_measurements(self, machine):
        report = pruned(machine, samples=80, keep_fraction=0.2).search(7, rng=1)
        assert report.measurement_savings > 0.5

    def test_pruned_result_close_to_full_search(self, machine):
        # Measuring only the model-selected quarter should find a plan whose
        # cycle count is close to the best of measuring everything (this is
        # the operational claim of the paper's conclusion).
        candidates_seed = 3
        full = RandomSearch(CostEngine(machine), samples=60).search(7, rng=candidates_seed)
        report = pruned(machine, samples=60, keep_fraction=0.25).search(
            7, rng=candidates_seed
        )
        assert report.result.best_cost <= full.best_cost * 1.10

    def test_explicit_threshold_keeps_everything_when_huge(self, machine):
        report = pruned(machine, samples=40, threshold=1e12).search(6, rng=2)
        assert report.pruned_fraction == 0.0

    def test_threshold_below_everything_falls_back_to_cheapest(self, machine):
        report = pruned(machine, samples=30, threshold=1.0).search(6, rng=3)
        assert report.measured_evaluations == 1

    def test_explicit_candidates(self, machine):
        from repro.wht.canonical import canonical_plans

        plans = list(canonical_plans(7).values())
        report = pruned(machine, keep_fraction=1.0).search(7, candidates=plans)
        assert report.model_evaluations == len(plans)

    def test_candidate_size_mismatch_rejected(self, machine):
        from repro.wht.canonical import iterative_plan

        with pytest.raises(ValueError):
            pruned(machine).search(7, candidates=[iterative_plan(6)])

    def test_invalid_configuration(self, machine):
        with pytest.raises(ValueError):
            pruned(machine, keep_fraction=0.0)


class TestObjectiveDrivenStrategies:
    """Every strategy evaluates an engine surface or ``engine.cost(objective)``."""

    def _engine(self, machine, store=None):
        from repro.runtime.store import MemoryStore

        return CostEngine(machine, store=store if store is not None else MemoryStore())

    def test_engine_and_its_cycles_objective_agree(self, machine):
        by_objective = RandomSearch(
            self._engine(machine).cost("cycles"), samples=25
        ).search(6, rng=3)
        by_engine = RandomSearch(self._engine(machine), samples=25).search(6, rng=3)
        assert by_objective.best_plan == by_engine.best_plan
        assert by_objective.history == by_engine.history

    def test_exhaustive_search_with_model_objective_matches_model(self, machine):
        from repro.models.instruction_count import InstructionCountModel
        from repro.wht.enumeration import enumerate_plans

        engine = self._engine(machine)
        result = ExhaustiveSearch(engine.cost("model_instructions")).search(5)
        model = InstructionCountModel(machine.config.instruction_model)
        assert result.best_cost == min(float(model.count(p)) for p in enumerate_plans(5))
        assert engine.measured == 0  # model objectives never touch the machine

    def test_dp_best_plan_with_objective(self, machine):
        by_objective = dp_best_plan(self._engine(machine).cost("cycles"), 7)
        by_engine = dp_best_plan(self._engine(machine), 7)
        assert by_objective.best_plan == by_engine.best_plan
        assert by_objective.best_cost == by_engine.best_cost

    def test_dp_search_class_with_a_metric_objective(self, machine):
        from repro.wht.dp_search import DPSearch

        result = DPSearch(self._engine(machine).cost("l1_misses")).search(6)
        plain = DPSearch(lambda plan: float(machine.measure(plan).l1_misses)).search(6)
        assert result.best_costs == plain.best_costs
        with pytest.raises(TypeError, match="callable"):
            DPSearch("l1_misses")

    def test_pruned_search_shares_one_engine_across_stages(self, machine):
        from repro.runtime.objectives import WeightedObjective

        engine = self._engine(machine)
        report = ModelPrunedSearch(
            model_cost=engine.cost(WeightedObjective.model_combined()),
            measure_cost=engine,
            samples=60,
            keep_fraction=0.25,
        ).search(6, rng=1)
        assert report.model_evaluations > 0
        # Stage 1 is analytic: only the survivors were measured.
        assert report.measured_evaluations == engine.measured
        assert engine.measured < report.model_evaluations

    def test_objective_strategies_resume_from_shared_store(self, machine):
        from repro.machine.machine import SimulatedMachine
        from repro.runtime.store import MemoryStore

        store = MemoryStore()
        first = RandomSearch(self._engine(machine, store=store), samples=30).search(6, rng=9)
        resumed_engine = self._engine(SimulatedMachine(machine.config), store=store)
        resumed = RandomSearch(resumed_engine, samples=30).search(6, rng=9)
        assert resumed_engine.measured == 0
        assert resumed.best_cost == first.best_cost
