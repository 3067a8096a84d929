"""Tests for the dynamic-programming plan search."""

import pytest

from repro.models.instruction_count import InstructionCountModel
from repro.wht.dp_search import DPSearch
from repro.wht.enumeration import enumerate_plans
from repro.wht.plan import Small, validate_plan


@pytest.fixture
def instruction_cost():
    return InstructionCountModel()


class TestCandidateCompositions:
    def test_binary_candidates(self, instruction_cost):
        searcher = DPSearch(instruction_cost, max_children=2)
        comps = searcher.candidate_compositions(5)
        assert (1, 4) in comps and (4, 1) in comps
        # The iterative composition is appended even though it has 5 parts.
        assert tuple([1] * 5) in comps
        assert all(len(c) <= 2 or c == (1, 1, 1, 1, 1) for c in comps)

    def test_unrestricted_candidates(self, instruction_cost):
        searcher = DPSearch(instruction_cost, max_children=None)
        comps = searcher.candidate_compositions(4)
        assert len(comps) == 2**3 - 1

    def test_no_duplicate_candidates(self, instruction_cost):
        searcher = DPSearch(instruction_cost, max_children=4)
        comps = searcher.candidate_compositions(4)
        assert len(comps) == len(set(comps))

    def test_invalid_configuration(self, instruction_cost):
        with pytest.raises(ValueError):
            DPSearch(instruction_cost, max_children=1)
        with pytest.raises(ValueError):
            DPSearch(instruction_cost, max_leaf=99)
        with pytest.raises(TypeError):
            DPSearch("not callable")


class TestSearch:
    def test_best_plans_for_every_exponent(self, instruction_cost):
        result = DPSearch(instruction_cost, max_children=3).search(6)
        for m in range(1, 7):
            plan = result.best(m)
            validate_plan(plan)
            assert plan.n == m

    def test_small_exponents_prefer_single_codelet(self, instruction_cost):
        # A single unrolled codelet has no loop or recursion overhead, so the
        # instruction model always prefers it when one exists.
        result = DPSearch(instruction_cost, max_children=3).search(6)
        for m in range(1, 7):
            assert result.best(m) == Small(m)

    def test_unrestricted_dp_is_optimal_for_instruction_model(self, instruction_cost):
        # With unrestricted compositions the DP must find the global optimum of
        # the (context-independent) instruction-count model.
        n = 5
        result = DPSearch(instruction_cost, max_children=None).search(n)
        best_exhaustive = min(
            (instruction_cost(plan), plan) for plan in enumerate_plans(n)
        )
        assert result.best_costs[n] == pytest.approx(best_exhaustive[0])

    def test_costs_are_recorded(self, instruction_cost):
        result = DPSearch(instruction_cost).search(4)
        assert result.evaluations == len(result.candidates)
        assert result.evaluations > 4
        assert set(result.best_costs) == {1, 2, 3, 4}

    def test_candidates_for_filters_by_exponent(self, instruction_cost):
        result = DPSearch(instruction_cost).search(4)
        for record in result.candidates_for(3):
            assert record.exponent == 3

    def test_extend_reuses_existing_work(self, instruction_cost):
        searcher = DPSearch(instruction_cost)
        result = searcher.search(4)
        evaluations_before = result.evaluations
        searcher.extend(result, 6)
        assert 6 in result.best_plans
        assert result.evaluations > evaluations_before
        # Exponents 1..4 were not re-evaluated.
        assert len(result.candidates_for(4)) == len(
            [c for c in result.candidates[:evaluations_before] if c.exponent == 4]
        )

    def test_search_with_measured_cost(self, machine):
        from repro.runtime.cost_engine import CostEngine

        result = DPSearch(CostEngine(machine), max_children=2).search(6)
        best = result.best(6)
        validate_plan(best)
        # The DP best is at least as good as the canonical plans it evaluated.
        iterative_cost = [
            record.cost
            for record in result.candidates_for(6)
            if record.plan.composition == (1,) * 6
        ]
        assert result.best_costs[6] <= min(iterative_cost)

    def test_larger_codelets_beat_radix_two_on_the_default_machine(self):
        # The paper's DP-best plans use larger unrolled leaves than the
        # canonical algorithms: a radix-2-only search at n = 12 costs > 5 %.
        from repro.config import default_scale
        from repro.machine.configs import default_machine
        from repro.runtime.cost_engine import CostEngine

        engine = CostEngine(default_machine(), seed=default_scale().seed)
        n = 12
        radix2 = DPSearch(engine, max_leaf=1, max_children=2).search(n)
        unrolled = DPSearch(engine, max_leaf=8, max_children=2).search(n)
        assert unrolled.best_costs[n] <= radix2.best_costs[n]
        assert unrolled.best_costs[n] < 0.95 * radix2.best_costs[n]
        assert max(unrolled.best(n).leaf_exponents()) >= 4
