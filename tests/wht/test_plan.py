"""Tests for the split-tree plan representation."""

import pickle

import pytest

from repro.wht.plan import (
    MAX_UNROLLED,
    Plan,
    Small,
    Split,
    _small_unchecked,
    _split_unchecked,
    plan_from_compositions,
    validate_plan,
)


class TestSmall:
    def test_size(self):
        assert Small(3).size == 8
        assert Small(1).size == 2

    def test_is_leaf(self):
        assert Small(2).is_leaf

    def test_composition_is_single_part(self):
        assert Small(4).composition == (4,)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Small(0)

    def test_rejects_exponent_above_unrolled_limit(self):
        with pytest.raises(ValueError):
            Small(MAX_UNROLLED + 1)

    def test_equality_and_hash(self):
        assert Small(3) == Small(3)
        assert Small(3) != Small(4)
        assert hash(Small(3)) == hash(Small(3))

    def test_leaves_and_depth(self):
        leaf = Small(5)
        assert leaf.leaves() == [leaf]
        assert leaf.depth() == 0
        assert leaf.num_nodes() == 1


class TestSplit:
    def test_exponent_is_sum_of_children(self):
        plan = Split((Small(2), Small(3)))
        assert plan.n == 5
        assert plan.size == 32

    def test_composition(self):
        plan = Split((Small(1), Small(2), Small(1)))
        assert plan.composition == (1, 2, 1)

    def test_requires_two_children(self):
        with pytest.raises(ValueError):
            Split((Small(3),))

    def test_rejects_non_plan_children(self):
        with pytest.raises(TypeError):
            Split((Small(1), 3))

    def test_nested_structure_metrics(self):
        inner = Split((Small(1), Small(2)))
        plan = Split((inner, Small(3)))
        assert plan.n == 6
        assert plan.num_leaves() == 3
        assert plan.num_nodes() == 5
        assert plan.depth() == 2
        assert plan.leaf_exponents() == [1, 2, 3]

    def test_equality_is_structural(self):
        a = Split((Small(1), Split((Small(2), Small(3)))))
        b = Split((Small(1), Split((Small(2), Small(3)))))
        assert a == b
        assert hash(a) == hash(b)

    def test_order_matters(self):
        assert Split((Small(1), Small(2))) != Split((Small(2), Small(1)))

    def test_walk_is_preorder(self):
        inner = Split((Small(1), Small(2)))
        plan = Split((inner, Small(3)))
        nodes = list(plan.walk())
        assert nodes[0] is plan
        assert nodes[1] is inner
        assert isinstance(nodes[-1], Small)

    def test_splits_iterator(self):
        inner = Split((Small(1), Small(2)))
        plan = Split((inner, Small(3)))
        assert list(plan.splits()) == [plan, inner]

    def test_usable_as_dict_key(self):
        table = {Split((Small(1), Small(1))): "a"}
        assert table[Split((Small(1), Small(1)))] == "a"

    def test_every_construction_hashes_and_compares_equal(self):
        checked = Split((Small(1), Split((Small(2), Small(3)))))
        unchecked = _split_unchecked(
            (Small(1), _split_unchecked((Small(2), Small(3)), 5)), 6
        )
        from_dict = Plan.from_dict(checked.to_dict())
        cold_pickle = pickle.loads(pickle.dumps(Split(checked.children)))
        hash(checked)  # cache the hash before pickling it along
        warm_pickle = pickle.loads(pickle.dumps(checked))
        plans = [checked, unchecked, from_dict, cold_pickle, warm_pickle]
        assert all(plan == checked and checked == plan for plan in plans)
        assert {hash(plan) for plan in plans} == {hash((6, checked.children))}
        assert len(set(plans)) == 1
        assert Split((Small(3), Split((Small(2), Small(1))))) != checked


class TestTransformations:
    def test_mirrored_reverses_children_recursively(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        mirrored = plan.mirrored()
        assert mirrored.composition == (5, 1)
        assert mirrored.children[0].composition == (3, 2)

    def test_mirrored_twice_is_identity(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        assert plan.mirrored().mirrored() == plan

    def test_map_leaves_identity(self):
        plan = Split((Small(1), Small(2)))
        assert plan.map_leaves(lambda leaf: leaf) == plan

    def test_map_leaves_rejects_exponent_change(self):
        plan = Split((Small(1), Small(2)))
        with pytest.raises(ValueError):
            plan.map_leaves(lambda leaf: Small(leaf.n + 1))


class TestSerialisation:
    def test_round_trip(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        assert Plan.from_dict(plan.to_dict()) == plan

    def test_leaf_round_trip(self):
        assert Plan.from_dict(Small(4).to_dict()) == Small(4)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            Plan.from_dict({"kind": "mystery"})


class TestPlanFromCompositions:
    def test_leaf_when_chooser_returns_none(self):
        assert plan_from_compositions(4, lambda m: None) == Small(4)

    def test_binary_recursion(self):
        def chooser(m):
            if m <= 2:
                return None
            return (1, m - 1)

        plan = plan_from_compositions(5, chooser)
        assert plan.n == 5
        assert plan.composition == (1, 4)

    def test_bad_composition_sum_raises(self):
        with pytest.raises(ValueError):
            plan_from_compositions(4, lambda m: (1, 1))

    def test_single_part_composition_raises(self):
        with pytest.raises(ValueError):
            plan_from_compositions(4, lambda m: (4,))


class TestValidatePlan:
    def test_valid_plan_passes(self):
        validate_plan(Split((Small(1), Split((Small(2), Small(3))))))

    def test_detects_inconsistent_exponent(self):
        plan = Split((Small(1), Small(2)))
        object.__setattr__(plan, "n", 99)
        with pytest.raises(ValueError):
            validate_plan(plan)

    def test_one_element_leaves_stay_internal(self):
        # Squeezed plans hold exponent-0 leaves; the public surface still
        # rejects them.
        leaf = _small_unchecked(0)
        assert leaf == _small_unchecked(0) and leaf.size == 1
        with pytest.raises(ValueError):
            validate_plan(Split((leaf, Small(2))))
