"""Tests for memory-trace generation."""

import numpy as np
import pytest

from repro.machine.trace import (
    MemoryTrace,
    collapse_consecutive,
    nest_addresses,
    trace_from_nests,
)
from repro.wht.interpreter import LeafNest, PlanInterpreter
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.random_plans import RSUSampler, random_plan


def nests_for(plan):
    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    return nests


class TestNestAddresses:
    def test_read_then_write_per_call(self):
        nest = LeafNest(
            k=1, base=0, outer_count=1, outer_stride=0, inner_count=1, inner_stride=0, elem_stride=1
        )
        addresses = nest_addresses(nest, element_size=8)
        # One call on elements {0, 1}: read pass then write pass.
        assert addresses.tolist() == [0, 8, 0, 8]

    def test_multiple_calls_in_order(self):
        nest = LeafNest(
            k=1, base=0, outer_count=2, outer_stride=2, inner_count=1, inner_stride=0, elem_stride=1
        )
        addresses = nest_addresses(nest, element_size=8)
        assert addresses.tolist() == [0, 8, 0, 8, 16, 24, 16, 24]

    def test_base_address_offset(self):
        nest = LeafNest(
            k=1, base=0, outer_count=1, outer_stride=0, inner_count=1, inner_stride=0, elem_stride=1
        )
        addresses = nest_addresses(nest, element_size=8, base_address=4096)
        assert addresses.min() == 4096

    def test_element_size(self):
        nest = LeafNest(
            k=1, base=0, outer_count=1, outer_stride=0, inner_count=1, inner_stride=0, elem_stride=1
        )
        assert nest_addresses(nest, element_size=4).tolist() == [0, 4, 0, 4]


class TestTraceFromNests:
    def test_length_is_twice_element_passes(self):
        plan = iterative_plan(6)
        trace = trace_from_nests(nests_for(plan))
        # loads + stores = 2 * N * num_leaves
        assert trace.accesses == 2 * plan.size * plan.num_leaves()
        assert trace.loads == trace.stores

    def test_footprint_equals_vector_size(self):
        plan = right_recursive_plan(7)
        trace = trace_from_nests(nests_for(plan))
        assert trace.footprint_bytes == plan.size * 8

    def test_addresses_within_vector(self):
        for seed in range(5):
            plan = random_plan(7, rng=seed)
            trace = trace_from_nests(nests_for(plan))
            assert trace.addresses.min() >= 0
            assert trace.addresses.max() <= (plan.size - 1) * 8

    def test_empty_nest_list(self):
        trace = trace_from_nests([])
        assert trace.accesses == 0
        assert trace.footprint_bytes == 0

    def test_line_addresses(self):
        plan = iterative_plan(4)
        trace = trace_from_nests(nests_for(plan))
        lines = trace.line_addresses(64)
        assert lines.max() == (plan.size * 8 - 8) // 64

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            MemoryTrace(addresses=np.zeros(4, dtype=np.int64), loads=1, stores=1)
        with pytest.raises(ValueError):
            MemoryTrace(addresses=np.zeros((2, 2), dtype=np.int64), loads=2, stores=2)


class TestCollapseConsecutive:
    def test_removes_runs(self):
        collapsed, removed = collapse_consecutive(np.array([1, 1, 1, 2, 2, 1]))
        assert collapsed.tolist() == [1, 2, 1]
        assert removed == 3

    def test_no_runs(self):
        collapsed, removed = collapse_consecutive(np.array([1, 2, 3]))
        assert collapsed.tolist() == [1, 2, 3]
        assert removed == 0

    def test_empty(self):
        collapsed, removed = collapse_consecutive(np.array([], dtype=np.int64))
        assert collapsed.shape == (0,)
        assert removed == 0

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            collapse_consecutive(np.zeros((2, 2)))

    def test_miss_counts_preserved_under_collapse(self):
        # Collapsing consecutive duplicate line accesses must not change the
        # miss count of any simulator.
        from repro.machine.cache import CacheConfig, SetAssociativeLRUCache

        plan = random_plan(7, rng=1)
        trace = trace_from_nests(nests_for(plan))
        config = CacheConfig(512, 64, 2)
        lines = trace.addresses >> 6
        collapsed, _ = collapse_consecutive(lines)
        full = SetAssociativeLRUCache(config).simulate(lines)
        reduced = SetAssociativeLRUCache(config).simulate(collapsed)
        assert full.sum() == reduced.sum()

    def test_collapse_compresses_a_random_plan_trace(self):
        # Even a strided-heavy plan keeps the read/write line pairing, so a
        # realistic trace always shrinks (64-byte lines, RSU n = 13).
        trace = trace_from_nests(nests_for(RSUSampler().sample(13, rng=17)))
        collapsed, _ = collapse_consecutive(trace.addresses >> 6)
        assert trace.accesses / collapsed.shape[0] > 1.05
