"""Tests for the instrumented plan interpreter."""

from dataclasses import replace

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
from repro.wht.interpreter import ExecutionStats, LeafNest, NestBlock, PlanInterpreter
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


class TestNestBlocks:
    """The template-replaying block walker behind profile and the machine."""

    def test_bare_leaf_is_one_block(self, interpreter):
        blocks = list(interpreter.iter_nest_blocks(Small(3)))
        assert len(blocks) == 1
        assert blocks[0].instances == 1
        assert blocks[0].starts.tolist() == [0]
        assert blocks[0].accesses_per_instance == 2 * 8

    def test_block_count_scales_with_structure_not_invocations(self, interpreter):
        # A deep right-recursive plan has ~2 emission sites per level, while
        # its nest count grows exponentially with depth.
        plan = right_recursive_plan(10, leaf=1)
        blocks = list(interpreter.iter_nest_blocks(plan))
        nests = list(interpreter.iter_nests(plan))
        assert len(blocks) < 25
        assert sum(block.instances for block in blocks) == len(nests)

    def test_iter_nests_matches_profile_record_trace(self, interpreter):
        for seed in range(5):
            plan = random_plan(8, rng=seed)
            _, expected = interpreter.profile(plan, record_trace=True)
            assert list(interpreter.iter_nests(plan)) == expected

    def test_stats_accumulated_while_walking(self, interpreter):
        plan = random_plan(8, rng=2)
        expected, _ = interpreter.profile(plan)
        stats = ExecutionStats(n=plan.n)
        for _ in interpreter.iter_nest_blocks(plan, stats=stats):
            pass
        assert stats.as_dict() == expected.as_dict()

    def test_starts_tile_the_access_stream(self, interpreter):
        plan = random_plan(8, rng=4)
        blocks = list(interpreter.iter_nest_blocks(plan))
        spans = sorted(
            (int(start), block.accesses_per_instance)
            for block in blocks
            for start in block.starts.tolist()
        )
        cursor = 0
        for start, length in spans:
            assert start == cursor
            cursor += length
        stats, _ = interpreter.profile(plan)
        assert cursor == stats.memory_ops

    def test_blocks_share_template_arrays_immutably(self, interpreter):
        plan = Split((Small(1), Small(2)))
        blocks = list(interpreter.iter_nest_blocks(plan))
        assert all(isinstance(block, NestBlock) for block in blocks)
        assert all(block.offsets.dtype == np.int64 for block in blocks)


def _instances(blocks):
    """``(start, nest, weight)`` per instance, in stream order."""
    rows = []
    for block in blocks:
        weights = [1] * block.instances if block.weights is None else block.weights.tolist()
        for offset, start, weight in zip(block.offsets.tolist(), block.starts.tolist(), weights):
            rows.append((start, replace(block.nest, base=block.nest.base + offset), weight))
    return sorted(rows, key=lambda row: row[0])


class TestSubPlanFolding:
    """``line_elements`` folds runs of sub-plan invocations over one line
    sequence; without it the walk is unchanged."""

    def test_without_line_elements_nothing_is_weighted(self, interpreter):
        for seed in range(5):
            plan = random_plan(10, rng=seed)
            blocks = list(interpreter.iter_nest_blocks(plan))
            assert all(block.weights is None for block in blocks)
            _, expected = interpreter.profile(plan, record_trace=True)
            assert [nest for _, nest, _ in _instances(blocks)] == expected

    def test_one_element_lines_never_fold(self, interpreter):
        plan = random_plan(10, rng=3)
        plain = _instances(PlanInterpreter().iter_nest_blocks(plan))
        assert _instances(interpreter.iter_nest_blocks(plan, line_elements=1)) == plain

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        line_elements=st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_folded_walk_keeps_stats_and_weights_cover_every_instance(
        self, n, seed, line_elements
    ):
        plan = random_plan(n, rng=seed)
        plain_stats, folded_stats = ExecutionStats(n=n), ExecutionStats(n=n)
        plain = _instances(PlanInterpreter().iter_nest_blocks(plan, stats=plain_stats))
        folded = _instances(
            PlanInterpreter().iter_nest_blocks(
                plan, stats=folded_stats, line_elements=line_elements
            )
        )
        assert folded_stats.as_dict() == plain_stats.as_dict()
        # Kept instances are real instances at their real stream positions,
        # and the weights account for every instance of the full walk.
        assert set((start, nest) for start, nest, _ in folded) <= set(
            (start, nest) for start, nest, _ in plain
        )
        assert sum(weight for *_, weight in folded) == len(plain)

    def test_fold_keeps_three_invocations_per_group(self, interpreter):
        # split[small[2],small[2]] runs at stride 8 under the root's unit
        # stride: eight invocations per 8-element line, three kept.
        plan = Split((Split((Small(2), Small(2))), Small(3)))
        folded = _instances(interpreter.iter_nest_blocks(plan, line_elements=8))
        weights = [weight for _, nest, weight in folded if nest.k == 2]
        assert weights == [1, 1, 1, 1, 6, 6]
        # The kept invocations are k = 0, 1, 2 of the stride loop.
        assert sorted({nest.base for _, nest, _ in folded if nest.k == 2}) == [0, 1, 2]

    def test_folded_and_unfolded_templates_never_share_a_cache_entry(self):
        plan = random_plan(11, rng=5)
        shared = PlanInterpreter()
        folded = _instances(shared.iter_nest_blocks(plan, line_elements=8))
        assert any(weight > 1 for *_, weight in folded)
        plain = _instances(shared.iter_nest_blocks(plan))
        assert plain == _instances(PlanInterpreter().iter_nest_blocks(plan))
        assert _instances(shared.iter_nest_blocks(plan, line_elements=8)) == folded

    def test_rejects_nonpositive_line_elements(self, interpreter):
        with pytest.raises(ValueError, match="line_elements"):
            list(interpreter.iter_nest_blocks(Small(2), line_elements=0))
