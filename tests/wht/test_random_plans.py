"""Tests for the recursive split uniform sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wht.plan import MAX_UNROLLED, Small, validate_plan
from repro.wht.random_plans import RSUSampler, random_plan, random_plans


class TestSamplerConstruction:
    def test_rejects_oversized_max_leaf(self):
        with pytest.raises(ValueError):
            RSUSampler(max_leaf=MAX_UNROLLED + 1)

    def test_rejects_max_children_below_two(self):
        with pytest.raises(ValueError):
            RSUSampler(max_children=1)


class TestChoices:
    def test_exponent_one_has_single_choice(self):
        assert RSUSampler().choices(1) == [(1,)]

    def test_choice_count_matches_composition_count(self):
        sampler = RSUSampler()
        # For m <= max_leaf every composition (including the trivial one) is a choice.
        for m in range(1, 6):
            assert len(sampler.choices(m)) == 2 ** (m - 1)

    def test_large_exponent_excludes_leaf(self):
        sampler = RSUSampler(max_leaf=4)
        choices = sampler.choices(6)
        assert (6,) not in choices
        assert len(choices) == 2**5 - 1

    def test_max_children_restriction(self):
        sampler = RSUSampler(max_children=2)
        choices = sampler.choices(4)
        assert all(len(c) <= 2 for c in choices)
        assert (1, 1, 2) not in choices

    def test_no_trivial_leaf_option(self):
        sampler = RSUSampler(allow_trivial_leaf=False)
        assert (3,) not in sampler.choices(3)

    def test_choices_cached(self):
        sampler = RSUSampler(max_children=3)
        assert sampler.choices(5) is sampler.choices(5)


class TestSampling:
    def test_sample_has_requested_exponent(self, rng):
        for n in (1, 3, 6, 10):
            plan = RSUSampler().sample(n, rng)
            assert plan.n == n
            validate_plan(plan)

    def test_deterministic_for_seed(self):
        a = RSUSampler().sample_many(8, 10, rng=99)
        b = RSUSampler().sample_many(8, 10, rng=99)
        assert a == b

    def test_sample_many_count(self, rng):
        plans = RSUSampler().sample_many(6, 25, rng)
        assert len(plans) == 25

    def test_leaf_constraint_respected(self, rng):
        sampler = RSUSampler(max_leaf=3)
        for plan in sampler.sample_many(9, 30, rng):
            assert max(plan.leaf_exponents()) <= 3

    def test_max_children_respected(self, rng):
        sampler = RSUSampler(max_children=2)
        for plan in sampler.sample_many(9, 30, rng):
            for node in plan.splits():
                assert len(node.children) == 2

    def test_exponent_one_always_leaf(self, rng):
        assert RSUSampler().sample(1, rng) == Small(1)

    def test_distribution_of_root_composition_is_uniform(self):
        # For n = 3 there are 4 equally likely root choices:
        # (3,), (1,2), (2,1), (1,1,1).
        rng = np.random.default_rng(5)
        sampler = RSUSampler()
        counts = {}
        trials = 8000
        for _ in range(trials):
            plan = sampler.sample(3, rng)
            key = plan.composition if not plan.is_leaf else (3,)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
        expected = trials / 4
        for value in counts.values():
            assert abs(value - expected) < 5 * np.sqrt(expected)

    def test_variety_of_samples(self, rng):
        plans = RSUSampler().sample_many(9, 50, rng)
        assert len(set(plans)) > 30  # overwhelmingly distinct at this size


class TestConvenienceWrappers:
    def test_random_plan(self):
        plan = random_plan(7, rng=3)
        assert plan.n == 7

    def test_random_plans(self):
        plans = random_plans(6, 5, rng=3)
        assert len(plans) == 5
        assert all(p.n == 6 for p in plans)

    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_property_samples_are_valid_plans(self, n, seed):
        plan = random_plan(n, rng=seed)
        validate_plan(plan)
        assert plan.n == n


class TestBufferedSampleMany:
    """The batched fast path must be draw-for-draw identical to the scalar
    recursion: ``sample_many(n, count, seed)`` returns exactly the plans a
    loop of ``sample(n, generator)`` over the same seeded generator would."""

    def _scalar_reference(self, sampler_kwargs, n, count, seed):
        sampler = RSUSampler(**sampler_kwargs)
        generator = np.random.default_rng(seed)
        return [sampler.sample(n, generator) for _ in range(count)]

    @pytest.mark.parametrize(
        "sampler_kwargs, n",
        [
            ({}, 1),
            ({}, 2),
            ({}, 3),
            ({}, 9),
            ({}, 14),
            ({"max_leaf": 3}, 10),  # forces the redraw (rejection) path
            ({"max_leaf": 1}, 6),
            ({"allow_trivial_leaf": False}, 8),  # no trivial leaves at all
            ({"max_leaf": 2, "allow_trivial_leaf": False}, 7),
        ],
    )
    def test_bit_identical_to_scalar_loop(self, sampler_kwargs, n):
        sampler = RSUSampler(**sampler_kwargs)
        fast = sampler.sample_many(n, 60, rng=202)
        assert fast == self._scalar_reference(sampler_kwargs, n, 60, 202)

    @given(
        n=st.integers(min_value=1, max_value=12),
        max_leaf=st.integers(min_value=1, max_value=MAX_UNROLLED),
        trivial=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_property(self, n, max_leaf, trivial, seed):
        kwargs = {"max_leaf": max_leaf, "allow_trivial_leaf": trivial}
        fast = RSUSampler(**kwargs).sample_many(n, 10, rng=seed)
        assert fast == self._scalar_reference(kwargs, n, 10, seed)

    def test_restricted_distribution_uses_scalar_path(self):
        kwargs = {"max_children": 2}
        fast = RSUSampler(**kwargs).sample_many(8, 30, rng=5)
        assert fast == self._scalar_reference(kwargs, 8, 30, 5)

    def test_samples_are_valid_plans(self):
        for plan in RSUSampler().sample_many(11, 50, rng=1):
            validate_plan(plan)
            assert plan.n == 11

    def test_buffer_refill_across_chunks(self):
        # A count large enough to exhaust the initial chunk several times.
        sampler = RSUSampler()
        fast = sampler.sample_many(6, 3000, rng=77)
        assert fast == self._scalar_reference({}, 6, 3000, 77)

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            RSUSampler().sample_many(5, 0)
        with pytest.raises(ValueError):
            RSUSampler().sample_many(0, 5)


class TestRestrictedSampleMany:
    """The restricted distribution's ``sample_many`` is the scalar loop."""

    @pytest.mark.parametrize("max_children", [2, 3, 5])
    def test_bit_identical_to_scalar(self, max_children):
        sampler = RSUSampler(max_children=max_children)
        generator = np.random.default_rng(2024)
        scalar = [sampler.sample(10, generator) for _ in range(500)]
        assert sampler.sample_many(10, 500, rng=2024) == scalar

    def test_bit_identical_with_restricted_leaf(self):
        sampler = RSUSampler(max_leaf=3, max_children=2)
        generator = np.random.default_rng(7)
        scalar = [sampler.sample(9, generator) for _ in range(300)]
        assert sampler.sample_many(9, 300, rng=7) == scalar

    def test_bit_identical_without_trivial_leaf(self):
        sampler = RSUSampler(max_children=3, allow_trivial_leaf=False)
        generator = np.random.default_rng(5)
        scalar = [sampler.sample(8, generator) for _ in range(300)]
        assert sampler.sample_many(8, 300, rng=5) == scalar

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 11),
        max_children=st.integers(2, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bit_identical(self, seed, n, max_children):
        sampler = RSUSampler(max_children=max_children)
        generator = np.random.default_rng(seed)
        scalar = [sampler.sample(n, generator) for _ in range(40)]
        assert sampler.sample_many(n, 40, rng=seed) == scalar

    def test_plans_validate_and_respect_the_restriction(self):
        sampler = RSUSampler(max_children=2)
        for plan in sampler.sample_many(9, 100, rng=1):
            validate_plan(plan)
            stack = [plan]
            while stack:
                node = stack.pop()
                assert len(node.children) <= 2
                stack.extend(node.children)
