"""Tests for plan keys and the structure-of-arrays plan encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wht import encoding
from repro.wht.encoding import MAX_ENCODABLE_EXPONENT, encode_plans, plan_key
from repro.wht.enumeration import enumerate_plans
from repro.wht.grammar import parse_plan, plan_to_string
from repro.wht.plan import Small, Split
from repro.wht.random_plans import random_plan


class TestPlanKey:
    def test_key_is_parseable_grammar(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        assert plan_key(plan) == "split[small[1],split[small[2],small[3]]]"
        assert parse_plan(plan_key(plan)) == plan

    def test_structural_equality_is_key_equality(self):
        a = Split((Small(2), Small(2)))
        b = Split((Small(2), Small(2)))
        assert a is not b
        assert plan_key(a) == plan_key(b)

    def test_distinct_plans_distinct_keys(self):
        plans = list(enumerate_plans(6))
        keys = {plan_key(p) for p in plans}
        assert len(keys) == len(plans)

    @given(n=st.integers(1, 14), seed=st.integers(0, 10**6), keyed=st.lists(st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_property_keys_joined_from_cached_children_render_the_plan(self, n, seed, keyed):
        # Key an arbitrary subset of the sub-plans first, as a search keys
        # its best plans before building candidates from them.
        plan = random_plan(n, rng=seed)
        nodes, stack = [], [plan]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(getattr(node, "children", ()))
        for node, first in zip(reversed(nodes), keyed):
            if first:
                plan_key(node)
        for node in nodes:
            assert plan_key(node) == plan_to_string(node)

    def test_split_over_keyed_children_renders_nothing(self, monkeypatch):
        children = (Split((Small(2), Small(3))), Small(4))
        for child in children:
            plan_key(child)
        calls = []
        monkeypatch.setattr(
            encoding, "plan_to_string", lambda plan: calls.append(plan) or plan_to_string(plan)
        )
        assert plan_key(Split(children)) == "split[split[small[2],small[3]],small[4]]"
        assert calls == []


    @given(n=st.integers(1, 18), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_str_is_the_key(self, n, seed):
        plan = random_plan(n, rng=seed)
        assert str(plan) == plan_to_string(plan) == plan_key(plan)

    def test_str_renders_once(self, monkeypatch):
        plan = Split((Small(2), Split((Small(1), Small(3)))))
        calls = []
        monkeypatch.setattr(
            encoding, "plan_to_string", lambda plan: calls.append(plan) or plan_to_string(plan)
        )
        assert str(plan) == str(plan) == repr(plan)[len("Split(") : -1]
        assert calls == [plan]


class TestEncodePlans:
    def test_empty_batch(self):
        enc = encode_plans([])
        assert enc.num_plans == 0
        assert enc.num_nodes == 0
        assert enc.num_slots == 0

    def test_single_leaf(self):
        enc = encode_plans([Small(4)])
        assert enc.num_nodes == 1
        assert enc.num_slots == 0
        assert enc.node_exponent.tolist() == [4]
        assert enc.node_is_leaf.tolist() == [True]
        assert enc.root_index.tolist() == [0]

    def test_post_order_and_ranges(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        enc = encode_plans([plan, Small(2)])
        assert enc.num_plans == 2
        # Post-order: children precede parents, root is last in its segment.
        for slot in range(enc.num_slots):
            assert enc.slot_child[slot] < enc.slot_owner[slot]
        assert enc.node_exponent[enc.root_index].tolist() == [6, 2]
        # Node segments partition the node array.
        assert enc.plan_node_start.tolist() == [0, 5, 6]
        # Root split exponent is the sum of its children's.
        assert enc.node_exponent[enc.root_index[0]] == 6

    def test_suffix_exponents_match_triple_loop(self):
        # split[small[1], small[2], small[3]]: suffixes (right-to-left inner
        # products) are 5, 3, 0 read left to right.
        plan = Split((Small(1), Small(2), Small(3)))
        enc = encode_plans([plan])
        assert enc.slot_suffix_exponent.tolist() == [5, 3, 0]

    def test_node_multiplicity_telescopes(self):
        plan = Split((Small(1), Split((Small(2), Small(3)))))
        enc = encode_plans([plan])
        # Multiplicity of a node of exponent k under root n is 2^(n - k).
        expected = (1 << (6 - enc.node_exponent)).tolist()
        assert enc.node_multiplicity().tolist() == expected

    def test_slot_ranges_cover_children(self):
        plans = [random_plan(7, rng=seed) for seed in range(5)]
        enc = encode_plans(plans)
        first, count = enc.slot_ranges()
        assert int(count.sum()) == enc.num_slots
        assert count[enc.node_is_leaf].tolist() == [0] * int(enc.node_is_leaf.sum())
        for node in range(enc.num_nodes):
            owners = enc.slot_owner[first[node] : first[node] + count[node]]
            assert (owners == node).all()

    def test_node_plan_segments(self):
        plans = [Small(1), Split((Small(1), Small(1)))]
        enc = encode_plans(plans)
        assert enc.node_plan().tolist() == [0, 1, 1, 1]

    def test_segment_sums_exact(self):
        plans = [random_plan(8, rng=seed) for seed in range(4)]
        enc = encode_plans(plans)
        ones = np.ones(enc.num_nodes, dtype=np.int64)
        assert enc.segment_sum_nodes(ones).tolist() == np.diff(enc.plan_node_start).tolist()

    def test_rejects_non_plans_and_oversized(self):
        with pytest.raises(TypeError):
            encode_plans(["small[1]"])

        deep = Small(1)
        for _ in range(MAX_ENCODABLE_EXPONENT):
            deep = Split((Small(1), deep))
        with pytest.raises(ValueError):
            encode_plans([deep])


class TestMemoisedSegmentSplice:
    """encode_plans caches per-plan segments; splicing is bit-identical."""

    FIELDS = (
        "node_exponent",
        "node_is_leaf",
        "node_depth",
        "plan_node_start",
        "slot_owner",
        "slot_child",
        "slot_suffix_exponent",
        "plan_slot_start",
    )

    def assert_encodings_equal(self, a, b):
        for field in self.FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_re_encoding_is_identical(self):
        plans = [random_plan(9, rng=seed) for seed in range(6)]
        self.assert_encodings_equal(encode_plans(plans), encode_plans(plans))

    def test_cached_segments_match_fresh_walks(self):
        from repro.wht.encoding import _SEGMENT_CACHE

        plans = [random_plan(8, rng=seed) for seed in range(4)]
        _SEGMENT_CACHE.clear()
        cold = encode_plans(plans)
        assert len(_SEGMENT_CACHE) == len({str(p) for p in plans})
        warm = encode_plans(plans)
        self.assert_encodings_equal(cold, warm)

    def test_order_and_duplicates_respected(self):
        a, b = random_plan(7, rng=0), random_plan(7, rng=1)
        encode_plans([a])  # prime the cache with a different batch shape
        enc = encode_plans([b, a, b, b])
        assert enc.num_plans == 4
        direct = encode_plans([b])
        ranges = list(zip(enc.plan_node_start[:-1], enc.plan_node_start[1:]))
        for plan_index in (0, 2, 3):
            low, high = ranges[plan_index]
            assert np.array_equal(
                enc.node_exponent[low:high], direct.node_exponent
            )

    def test_empty_batch(self):
        enc = encode_plans([])
        assert enc.num_plans == 0
        assert enc.num_nodes == 0
        assert enc.num_slots == 0
