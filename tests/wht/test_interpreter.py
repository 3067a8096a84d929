"""Tests for the instrumented plan interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wht.canonical import (
    iterative_plan,
    left_recursive_plan,
    right_recursive_plan,
)
from repro.wht.codelets import codelet_costs
from repro.wht.interpreter import ExecutionStats, LeafNest, PlanInterpreter, analytic_stats
from repro.wht.plan import Small, Split
from repro.wht.random_plans import random_plan
from repro.wht.transform import random_input, wht_reference


@pytest.fixture
def interpreter():
    return PlanInterpreter()


class TestExecute:
    def test_computes_wht(self, interpreter):
        plan = right_recursive_plan(7)
        x = random_input(7, seed=1)
        work = x.copy()
        interpreter.execute(plan, work)
        assert np.allclose(work, wht_reference(x))

    def test_rejects_wrong_length(self, interpreter):
        with pytest.raises(ValueError):
            interpreter.execute(iterative_plan(4), np.zeros(8))

    def test_rejects_non_array(self, interpreter):
        with pytest.raises(ValueError):
            interpreter.execute(iterative_plan(2), [0.0] * 4)

    def test_stats_match_profile(self, interpreter):
        for seed in range(5):
            plan = random_plan(8, rng=seed)
            profile_stats, _ = interpreter.profile(plan)
            x = np.zeros(plan.size)
            execute_stats = interpreter.execute(plan, x, collect_stats=True)
            assert profile_stats.as_dict() == execute_stats.as_dict()

    def test_no_stats_by_default(self, interpreter):
        assert interpreter.execute(iterative_plan(3), np.zeros(8)) is None


class TestProfileCounts:
    def test_bare_leaf(self, interpreter):
        stats, nests = interpreter.profile(Small(4), record_trace=True)
        assert stats.codelet_calls == {4: 1}
        assert stats.split_invocations == 0
        assert stats.child_calls == 0
        assert stats.loads == 16 and stats.stores == 16
        assert stats.arithmetic_ops == 4 * 16
        assert len(nests) == 1 and nests[0].calls == 1

    def test_single_split_of_two_leaves(self, interpreter):
        plan = Split((Small(1), Small(2)))  # size 8
        stats, _ = interpreter.profile(plan)
        # Children processed right to left: small[2] with R=2,S=1 then
        # small[1] with R=1,S=4.
        assert stats.split_invocations == 1
        assert stats.outer_iterations == 2
        assert stats.codelet_calls == {2: 2, 1: 4}
        assert stats.child_calls == 6
        assert stats.block_iterations == 2 + 1
        assert stats.stride_iterations == 1 + 4

    def test_iterative_plan_counts(self, interpreter):
        n = 6
        stats, _ = interpreter.profile(iterative_plan(n))
        size = 1 << n
        assert stats.split_invocations == 1
        assert stats.codelet_calls == {1: n * size // 2}
        # Every element is loaded and stored once per pass, one pass per leaf.
        assert stats.loads == n * size
        assert stats.stores == n * size
        # One butterfly stage per leaf pass: N/2 additions and N/2 subtractions.
        assert stats.arithmetic_ops == n * size

    def test_recursive_plans_have_more_overhead_events(self, interpreter):
        n = 8
        iterative, _ = interpreter.profile(iterative_plan(n))
        right, _ = interpreter.profile(right_recursive_plan(n))
        left, _ = interpreter.profile(left_recursive_plan(n))
        assert right.split_invocations > iterative.split_invocations
        assert left.split_invocations == right.split_invocations
        # The arithmetic work is identical for every plan of one size.
        assert iterative.arithmetic_ops == right.arithmetic_ops == left.arithmetic_ops
        # Left recursion pays more block-loop iterations, right more stride
        # iterations (see the interpreter module docstring).
        assert left.block_iterations > right.block_iterations
        assert right.stride_iterations > left.stride_iterations

    def test_total_memory_ops_formula(self, interpreter):
        for seed in range(5):
            plan = random_plan(7, rng=seed)
            stats, _ = interpreter.profile(plan)
            assert stats.loads == stats.stores == plan.size * plan.num_leaves()

    def test_scaled(self):
        stats = ExecutionStats(n=3)
        stats.codelet_calls[2] = 3
        stats.loads = 10
        scaled = stats.scaled(4)
        assert scaled.codelet_calls[2] == 12
        assert scaled.loads == 40
        assert stats.loads == 10  # original untouched

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            ExecutionStats(n=1).scaled(-1)

    def test_merge_accumulates(self):
        a = ExecutionStats(n=3)
        a.additions = 5
        b = ExecutionStats(n=3)
        b.additions = 7
        a.merge(b)
        assert a.additions == 12


class TestLeafNests:
    def test_nest_element_indices_order(self):
        nest = LeafNest(
            k=1, base=0, outer_count=2, outer_stride=4, inner_count=2, inner_stride=1, elem_stride=2
        )
        indices = nest.element_indices()
        assert indices.tolist() == [0, 2, 1, 3, 4, 6, 5, 7]
        assert nest.calls == 4
        assert nest.total_elements == 8

    def test_nests_cover_every_element_once_per_pass(self, interpreter):
        for seed in range(5):
            plan = random_plan(7, rng=seed)
            _, nests = interpreter.profile(plan, record_trace=True)
            counts = np.zeros(plan.size, dtype=int)
            for nest in nests:
                np.add.at(counts, nest.element_indices(), 1)
            # Each leaf pass touches every element exactly once.
            assert np.all(counts == plan.num_leaves())

    def test_nest_addresses_stay_in_bounds(self, interpreter):
        for seed in range(5):
            plan = random_plan(8, rng=seed)
            _, nests = interpreter.profile(plan, record_trace=True)
            for nest in nests:
                indices = nest.element_indices()
                assert indices.min() >= 0
                assert indices.max() < plan.size

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_profile_consistent_with_codelet_costs(self, seed):
        plan = random_plan(6, rng=seed)
        stats, _ = PlanInterpreter().profile(plan)
        adds = sum(codelet_costs(k).additions * c for k, c in stats.codelet_calls.items())
        assert stats.additions == adds


class TestRecursiveReference:
    """``profile`` is the recursive schedule, and the analytic counts the
    machine reports equal it."""

    def test_profile_nests_match_the_recursive_run(self, interpreter):
        for seed in range(5):
            plan = random_plan(8, rng=seed)
            stats = ExecutionStats(n=plan.n)
            nests = []
            interpreter._run(plan, base=0, stride=1, x=None, stats=stats, nests=nests)
            profiled, expected = interpreter.profile(plan, record_trace=True)
            assert expected == nests
            assert profiled.as_dict() == stats.as_dict()

    def test_analytic_stats_match_execute(self, interpreter):
        plan = random_plan(8, rng=2)
        executed = interpreter.execute(plan, np.zeros(plan.size), collect_stats=True)
        assert analytic_stats(plan).as_dict() == executed.as_dict()

    def test_nests_account_for_every_access(self, interpreter):
        plan = random_plan(8, rng=4)
        stats, nests = interpreter.profile(plan, record_trace=True)
        assert sum(2 * nest.total_elements for nest in nests) == stats.memory_ops
        assert analytic_stats(plan).memory_ops == stats.memory_ops

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_property_analytic_stats_match_execute(self, seed, n):
        plan = random_plan(n, rng=seed)
        executed = PlanInterpreter().execute(plan, np.zeros(plan.size), collect_stats=True)
        assert analytic_stats(plan).as_dict() == executed.as_dict()
