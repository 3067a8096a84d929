"""Tests for the theoretical properties of the algorithm space."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cpu import InstructionCostModel
from repro.models.instruction_count import instruction_count
from repro.models.theory import (
    algorithm_space_size,
    extreme_instruction_counts,
    rsu_instruction_moments,
    space_growth_ratios,
)
from repro.util.compositions import compositions
from repro.wht.enumeration import enumerate_plans
from repro.wht.plan import Small, Split
from repro.wht.random_plans import RSUSampler


def _brute_force_extremes(n, cost_model, max_leaf, maximize):
    """The optimiser's oracle: score every composition of every exponent.

    Per exponent the candidates are the leaf (first), then one split per
    proper composition in lexicographic order, each scored with the full
    recursive ``instruction_count``; ``min``/``max`` keep the first of tied
    candidates.
    """
    better = max if maximize else min
    best = {}
    for m in range(1, n + 1):
        candidates = []
        if m <= max_leaf:
            leaf = Small(m)
            candidates.append((leaf, instruction_count(leaf, cost_model)))
        for comp in compositions(m, min_parts=2):
            plan = Split(tuple(best[part][0] for part in comp))
            candidates.append((plan, instruction_count(plan, cost_model)))
        best[m] = better(candidates, key=lambda item: item[1])
    return best[n]


def _assert_matches_brute_force(n, cost_model, max_leaf):
    extremes = extreme_instruction_counts(n, cost_model=cost_model, max_leaf=max_leaf)
    assert (extremes.min_plan, extremes.min_count) == _brute_force_extremes(
        n, cost_model, max_leaf, maximize=False
    )
    assert (extremes.max_plan, extremes.max_count) == _brute_force_extremes(
        n, cost_model, max_leaf, maximize=True
    )


_COST_FIELDS = [field.name for field in dataclasses.fields(InstructionCostModel)]

#: Every weight from 0 to 30.  The all-zero model, which leaves only the
#: codelets' own operations and so ties many compositions, is the minimal
#: example Hypothesis shrinks towards.
cost_models = st.builds(
    lambda weights: InstructionCostModel(**dict(zip(_COST_FIELDS, weights))),
    st.tuples(*[st.integers(0, 30) for _ in _COST_FIELDS]),
)


class TestSpaceSize:
    def test_matches_enumeration_module(self):
        from repro.wht.enumeration import count_plans

        for n in range(1, 10):
            assert algorithm_space_size(n) == count_plans(n)

    def test_growth_ratios_increase_toward_seven(self):
        ratios = space_growth_ratios(20)
        assert ratios[-1] > ratios[5]
        assert 6.0 < ratios[-1] < 7.2


class TestExtremeInstructionCounts:
    @settings(max_examples=80, deadline=None)
    @given(
        model=cost_models,
        max_leaf=st.integers(1, 8),
        n=st.integers(1, 10),
        maximize=st.booleans(),
    )
    def test_matches_brute_force_enumeration(self, model, max_leaf, n, maximize):
        extremes = extreme_instruction_counts(n, cost_model=model, max_leaf=max_leaf)
        plan, count = _brute_force_extremes(n, model, max_leaf, maximize)
        if maximize:
            assert (extremes.max_plan, extremes.max_count) == (plan, count)
        else:
            assert (extremes.min_plan, extremes.min_count) == (plan, count)

    def test_all_zero_model_ties_resolve_like_enumeration(self):
        zero = InstructionCostModel(**{name: 0 for name in _COST_FIELDS})
        for max_leaf in (1, 3, 8):
            for n in range(1, 10):
                _assert_matches_brute_force(n, zero, max_leaf)

    def test_leaf_wins_a_tie_with_the_best_split(self):
        # With non-negative weights a split always costs more than the leaf
        # (it loads and stores every element once per level), so the tie
        # needs a negative weight: small[2] and split[small[1],small[1]]
        # both count 16 here.
        zero = {name: 0 for name in _COST_FIELDS}
        model = InstructionCostModel(**{**zero, "split_invocation_cost": -8})
        extremes = extreme_instruction_counts(2, cost_model=model)
        assert extremes.min_plan == extremes.max_plan == Small(2)
        assert extremes.min_count == extremes.max_count == 16
        for n in range(1, 8):
            _assert_matches_brute_force(n, model, max_leaf=8)

    def test_default_model_n13_pinned(self):
        extremes = extreme_instruction_counts(13)
        assert extremes.min_count == 145841
        assert str(extremes.min_plan) == "split[small[6],small[7]]"
        assert extremes.max_count == 2652753
        assert instruction_count(extremes.max_plan) == extremes.max_count

    def test_extremes_bound_every_plan_small_sizes(self):
        for n in range(1, 8):
            extremes = extreme_instruction_counts(n)
            counts = [instruction_count(p) for p in enumerate_plans(n)]
            assert extremes.min_count == min(counts)
            assert extremes.max_count == max(counts)

    def test_extreme_plans_have_matching_counts(self):
        extremes = extreme_instruction_counts(6)
        assert instruction_count(extremes.min_plan) == extremes.min_count
        assert instruction_count(extremes.max_plan) == extremes.max_count

    def test_minimum_is_single_codelet_when_available(self):
        # A lone unrolled codelet beats any split for sizes within the
        # unrolled range under the default cost model.
        extremes = extreme_instruction_counts(7)
        assert extremes.min_plan.is_leaf

    def test_maximum_uses_smallest_leaves(self):
        extremes = extreme_instruction_counts(6)
        assert set(extremes.max_plan.leaf_exponents()) == {1}

    def test_spread_grows_with_size(self):
        assert extreme_instruction_counts(8).spread >= extreme_instruction_counts(4).spread

    def test_custom_cost_model(self):
        heavy_overhead = InstructionCostModel(split_invocation_cost=10_000)
        default = extreme_instruction_counts(5)
        heavy = extreme_instruction_counts(5, cost_model=heavy_overhead)
        assert heavy.max_count > default.max_count

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            extreme_instruction_counts(0)
        with pytest.raises(ValueError, match="max_leaf"):
            extreme_instruction_counts(3, max_leaf=0)


class TestRSUMoments:
    def test_moments_match_monte_carlo(self):
        n = 6
        moments = rsu_instruction_moments(n)
        sampler = RSUSampler()
        rng = np.random.default_rng(0)
        sample = np.array(
            [instruction_count(sampler.sample(n, rng)) for _ in range(4000)], dtype=float
        )
        assert moments.mean == pytest.approx(sample.mean(), rel=0.05)
        assert moments.std == pytest.approx(sample.std(), rel=0.15)

    def test_moments_exact_for_trivial_size(self):
        # n = 1 has a single plan: zero variance, mean = its count.
        from repro.wht.plan import Small

        moments = rsu_instruction_moments(1)
        assert moments.mean == pytest.approx(instruction_count(Small(1)))
        assert moments.variance == pytest.approx(0.0)

    def test_mean_within_extremes(self):
        for n in (4, 6, 8):
            moments = rsu_instruction_moments(n)
            extremes = extreme_instruction_counts(n)
            assert extremes.min_count <= moments.mean <= extremes.max_count

    def test_variance_nonnegative_and_grows(self):
        small = rsu_instruction_moments(4)
        large = rsu_instruction_moments(8)
        assert small.variance >= 0.0
        assert large.variance > small.variance

    def test_coefficient_of_variation_reasonable(self):
        moments = rsu_instruction_moments(8)
        assert 0.0 < moments.coefficient_of_variation < 1.0
