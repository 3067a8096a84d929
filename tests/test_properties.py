"""Cross-module property-based tests (hypothesis).

These properties tie the layers together: any plan drawn from the RSU
distribution must round-trip through every representation, be computed
correctly by the interpreter, be counted identically by the analytic models,
and produce cache-miss counts bounded by physical invariants of its trace.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheConfig, SetAssociativeLRUCache, make_cache
from repro.machine.configs import tiny_machine
from repro.machine.trace import trace_from_nests
from repro.models.cache_misses import CacheMissModel
from repro.models.instruction_count import analytic_stats, instruction_count
from repro.wht.grammar import parse_plan, plan_to_string
from repro.wht.interpreter import PlanInterpreter
from repro.wht.plan import Plan, Small, Split
from repro.wht.random_plans import random_plan
from repro.wht.transform import apply_plan, random_input, wht_reference

plan_strategy = st.builds(
    random_plan,
    n=st.integers(min_value=1, max_value=8),
    rng=st.integers(0, 10**6),
)


class TestPlanRepresentationProperties:
    @given(plan=plan_strategy)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, plan):
        assert Plan.from_dict(plan.to_dict()) == plan

    @given(plan=plan_strategy)
    @settings(max_examples=60, deadline=None)
    def test_grammar_round_trip(self, plan):
        assert parse_plan(plan_to_string(plan)) == plan

    @given(plan=plan_strategy)
    @settings(max_examples=60, deadline=None)
    def test_mirror_is_involution_and_preserves_counts(self, plan):
        mirrored = plan.mirrored()
        assert mirrored.mirrored() == plan
        assert mirrored.n == plan.n
        assert sorted(mirrored.leaf_exponents()) == sorted(plan.leaf_exponents())

    @given(plan=plan_strategy)
    @settings(max_examples=60, deadline=None)
    def test_structure_metrics_consistent(self, plan):
        assert plan.num_nodes() >= plan.num_leaves()
        assert sum(leaf.n for leaf in plan.leaves()) >= plan.n  # leaves partition >= once
        assert plan.depth() < plan.num_nodes()


class TestExecutionProperties:
    @given(seed=st.integers(0, 10**5), n=st.integers(min_value=1, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_any_plan_computes_the_wht(self, seed, n):
        plan = random_plan(n, rng=seed)
        x = random_input(n, seed=seed)
        assert np.allclose(apply_plan(plan, x), wht_reference(x))

    @given(plan=plan_strategy)
    @settings(max_examples=40, deadline=None)
    def test_analytic_stats_equal_interpreter_stats(self, plan):
        measured, _ = PlanInterpreter().profile(plan)
        assert analytic_stats(plan).as_dict() == measured.as_dict()

    @given(plan=plan_strategy)
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_work_is_plan_independent(self, plan):
        stats = analytic_stats(plan)
        assert stats.arithmetic_ops == plan.n * plan.size
        assert stats.loads == stats.stores == plan.size * plan.num_leaves()

    @given(plan=plan_strategy)
    @settings(max_examples=30, deadline=None)
    def test_splitting_a_leaf_never_reduces_instruction_count(self, plan):
        # Replacing any leaf of exponent >= 2 by a two-way split of the same
        # exponent adds loop/call overhead while keeping the arithmetic, so the
        # modelled instruction count cannot drop.
        leaves = [leaf for leaf in plan.leaves() if leaf.n >= 2]
        if not leaves:
            return
        target = leaves[0]
        replaced = [False]

        def replace(leaf):
            if leaf is target and not replaced[0]:
                replaced[0] = True
                return Split((Small(1), Small(leaf.n - 1)))
            return leaf

        deeper = plan.map_leaves(replace)
        assert instruction_count(deeper) >= instruction_count(plan)


class TestCacheProperties:
    @given(
        seed=st.integers(0, 10**6),
        size_kb=st.sampled_from([1, 2, 4]),
        assoc=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_misses_bounded_by_accesses_and_footprint(self, seed, size_kb, assoc):
        plan = random_plan(7, rng=seed)
        _, nests = PlanInterpreter().profile(plan, record_trace=True)
        trace = trace_from_nests(nests)
        config = CacheConfig(size_kb * 1024, 64, assoc)
        misses = int(make_cache(config).simulate(config.line_of(trace.addresses)).sum())
        cold = trace.footprint_bytes // config.line_size
        assert cold <= misses <= trace.accesses

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_larger_cache_never_misses_more_lru(self, seed):
        # LRU inclusion: doubling the associativity at a fixed set count can
        # only remove misses.
        plan = random_plan(7, rng=seed)
        _, nests = PlanInterpreter().profile(plan, record_trace=True)
        trace = trace_from_nests(nests)
        small = SetAssociativeLRUCache(CacheConfig(1024, 64, 1))
        large = SetAssociativeLRUCache(CacheConfig(2048, 64, 2))
        large_misses = large.simulate(large.config.line_of(trace.addresses)).sum()
        assert large_misses <= small.simulate(small.config.line_of(trace.addresses)).sum()

    @given(plan=plan_strategy)
    @settings(max_examples=40, deadline=None)
    def test_analytic_miss_model_respects_physical_bounds(self, plan):
        model = CacheMissModel(capacity_elements=64, line_elements=8, associativity=2)
        misses = model.misses(plan)
        cold = -(-plan.size // 8)
        total_line_touches = plan.size * plan.num_leaves()
        assert cold <= misses <= 2 * total_line_touches

    @given(seed=st.integers(0, 10**6), n=st.integers(min_value=4, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_measurement_invariants(self, seed, n):
        machine = tiny_machine(noise_sigma=0.0)
        plan = random_plan(n, rng=seed)
        m = machine.measure(plan)
        assert m.instructions >= m.arithmetic_ops + m.loads + m.stores
        assert m.l1_misses <= m.l1_accesses
        assert m.l2_misses <= m.l1_misses
        assert m.cycles >= m.instructions  # every instruction costs at least a cycle
