"""The plan-tree trace builder: template replay, its memo and its folds.

Every stream the builder emits is checked against the eager oracle (the
recursive interpreter's nests, expanded in full): without caches the lines
themselves, with caches the hierarchy statistics on the reference
simulators.  A builder whose template memo is warm must emit exactly what a
fresh one emits.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_prepare import oracle_stats

from repro.machine import trace
from repro.machine.cache import CacheConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.trace import (
    DEFAULT_CHUNK_ACCESSES,
    TEMPLATE_MEMO_LINES,
    TraceBuilder,
    collapse_consecutive,
    plan_lines,
    squeeze_plan,
    stream_line_chunks,
    trace_from_nests,
)
from repro.wht.canonical import right_recursive_plan
from repro.wht.interpreter import PlanInterpreter
from repro.wht.plan import Small, Split
from repro.wht.random_plans import random_plan


def eager_lines(plan, line_size):
    """``collapse_consecutive`` of the plan's eager line sequence."""
    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    lines, _ = collapse_consecutive(trace_from_nests(nests).addresses // line_size)
    return lines


def concatenated(chunks):
    return np.concatenate([chunk.lines for chunk in chunks])


def assert_same_chunks(a, b):
    assert len(a) == len(b)
    for one, other in zip(a, b):
        assert np.array_equal(one.lines, other.lines)
        assert one.lines.dtype == other.lines.dtype == np.int32
        assert np.array_equal(one.weighted_ranges, other.weighted_ranges)
        assert (one.accesses, one.folded_l1_misses, one.folded_l2_misses) == (
            other.accesses,
            other.folded_l1_misses,
            other.folded_l2_misses,
        )


GEOMETRIES = st.tuples(
    st.sampled_from([1, 2, 4, 16]),  # L1 associativity
    st.sampled_from([2, 8]),  # L1 sets
    st.sampled_from([32, 64]),  # line size of both levels
    st.sampled_from([1, 2, 4, 16]),  # L2 associativity
    st.booleans(),  # has L2
)


def caches(geometry):
    l1_assoc, l1_sets, line, l2_assoc, has_l2 = geometry
    l1 = CacheConfig(l1_assoc * l1_sets * line, line, l1_assoc, name="L1")
    if not has_l2:
        return l1, None
    return l1, CacheConfig(max(4 * l1.size_bytes, 16 * l2_assoc * line), line, l2_assoc, name="L2")


class TestBuilderAgainstEagerOracle:
    @given(geometry=GEOMETRIES, n=st.integers(1, 10), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_streams_match_the_oracle_and_warm_equals_cold(self, geometry, n, seed):
        l1, l2 = caches(geometry)
        plan = random_plan(n, rng=seed)
        # Without caches: exactly the collapsed eager line sequence.
        exact = list(stream_line_chunks(plan, line_size=l1.line_size))
        assert np.array_equal(concatenated(exact), eager_lines(plan, l1.line_size))
        # With caches: the eager trace's statistics on the reference caches.
        builder = TraceBuilder(l1.line_size, caches=(l1, l2))
        cold = list(builder.stream(plan))
        assert MemoryHierarchy(l1, l2).process_line_chunks(cold) == oracle_stats(l1, l2, plan)[1]
        # A memo warmed by another plan and by this one replays the same bytes.
        list(builder.stream(random_plan(n, rng=seed + 1)))
        assert_same_chunks(list(builder.stream(plan)), cold)
        assert builder._memo.weight <= TEMPLATE_MEMO_LINES

    def test_base_address_offsets_every_template(self):
        plan = random_plan(9, rng=3)
        for base_address in (8, 40, 4096):
            _, nests = PlanInterpreter().profile(plan, record_trace=True)
            trace_lines = (base_address + trace_from_nests(nests).addresses) // 64
            expected, _ = collapse_consecutive(trace_lines)
            chunks = stream_line_chunks(plan, line_size=64, base_address=base_address)
            assert np.array_equal(concatenated(list(chunks)), expected)

    def test_chunks_stay_within_the_budget(self):
        l1, l2 = CacheConfig(4096, 64, 2), CacheConfig(65536, 64, 16)
        for seed in range(3):
            plan = random_plan(15, rng=seed)
            chunks = list(stream_line_chunks(plan, line_size=64, caches=(l1, l2)))
            assert max(chunk.accesses for chunk in chunks) <= DEFAULT_CHUNK_ACCESSES
            assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()

    def test_rejects_nonpositive_geometry(self):
        for arguments in ({"line_size": 0}, {"line_size": 64, "chunk_accesses": 0}):
            with pytest.raises(ValueError):
                TraceBuilder(**arguments)
        with pytest.raises(ValueError, match="base_address"):
            TraceBuilder(64, base_address=-8)


class TestPlanLines:
    """A whole plan expanded at once is the builder's stream without caches."""

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        line_size=st.sampled_from([32, 64, 128]),
        element_size=st.sampled_from([8, 24]),
        squeezed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_equals_the_builder_stream(
        self, n, seed, line_size, element_size, squeezed
    ):
        plan = random_plan(n, rng=seed)
        if squeezed:
            # A squeezed plan may hold one-element (exponent-0) leaves.
            plan = squeeze_plan(random_plan(14, rng=seed), 3, 9)
        chunk = plan_lines(plan, line_size, element_size)
        streamed = list(TraceBuilder(line_size, element_size).stream(plan))
        assert chunk.lines.dtype == np.int32
        assert np.array_equal(chunk.lines, concatenated(streamed))
        accesses = sum(c.accesses for c in streamed)
        assert chunk.accesses == accesses == 2 * plan.size * plan.num_leaves()
        assert chunk.folded_l1_misses == chunk.folded_l2_misses == 0
        assert chunk.weighted_ranges.shape[0] == 0

    def test_rejects_plans_past_the_line_range(self):
        with pytest.raises(ValueError, match="2\\^31"):
            plan_lines(right_recursive_plan(29), 64)


class TestTemplateMemo:
    def test_templates_scale_with_structure_not_invocations(self):
        # A deep right-recursive plan replays one template per level, while
        # its nest count grows exponentially with depth.
        plan = right_recursive_plan(10, leaf=1)
        builder = TraceBuilder(32)
        lines = concatenated(list(builder.stream(plan)))
        _, nests = PlanInterpreter().profile(plan, record_trace=True)
        assert len(builder._memo) < 25 < len(nests)
        assert np.array_equal(lines, eager_lines(plan, 32))

    def test_warm_memo_streams_equal_cold(self):
        l1, l2 = CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4)
        shared = TraceBuilder(32, caches=(l1, l2))
        for seed in range(5):
            plan = random_plan(9, rng=seed)
            list(shared.stream(plan))
            warm = list(shared.stream(plan))
            assert_same_chunks(warm, list(stream_line_chunks(plan, 32, caches=(l1, l2))))

    def test_replays_never_write_into_templates(self):
        builder = TraceBuilder(64, caches=(CacheConfig(1024, 64, 2), None))
        list(builder.stream(random_plan(10, rng=1)))
        snapshot = {key: builder._memo.get(key).lines.copy() for key in list(builder._memo)}
        for seed in range(2, 6):
            list(builder.stream(random_plan(10, rng=seed)))
        for key, lines in snapshot.items():
            template = builder._memo.get(key)
            if template is not None:
                assert np.array_equal(template.lines, lines)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace, "TEMPLATE_MEMO_LINES", 512)
        bounded = TraceBuilder(32)
        unbounded = TraceBuilder(32)
        unbounded._memo.capacity = 1 << 30
        for seed in range(8):
            plan = random_plan(10, rng=seed)
            assert_same_chunks(list(bounded.stream(plan)), list(unbounded.stream(plan)))
            assert bounded._memo.weight <= 512
        assert unbounded._memo.weight > 512

    def test_sub_plans_replay_at_several_residues(self):
        # ``split[small[1], small[1]]`` runs at stride 2 under the root's
        # unit stride, from bases 0 and 1: two residues of a 4-element line.
        plan = Split((Split((Small(1), Small(1))), Small(1)))
        builder = TraceBuilder(32)
        lines = concatenated(list(builder.stream(plan)))
        residues = collections.defaultdict(set)
        for node, stride, residue in builder._memo:
            residues[node, stride].add(residue)
        assert max(len(found) for found in residues.values()) >= 2
        assert np.array_equal(lines, eager_lines(plan, 32))


class TestSubPlanFolding:
    """With caches, whole elements per line and a line-aligned base, runs of
    sub-plan invocations over one line sequence keep three invocations."""

    def test_without_caches_nothing_is_weighted(self):
        for seed in range(5):
            plan = random_plan(10, rng=seed)
            chunks = list(stream_line_chunks(plan, line_size=64))
            assert all(chunk.weighted_ranges.shape[0] == 0 for chunk in chunks)
            assert np.array_equal(concatenated(chunks), eager_lines(plan, 64))

    def test_one_element_lines_never_fold(self, monkeypatch):
        # One element per line leaves no sub-line parent stride to group
        # invocations by; translated units may still fold.
        groups = []

        def spy(*arguments):
            groups.append(fold_group(*arguments))
            return groups[-1]

        fold_group = trace._fold_group
        monkeypatch.setattr(trace, "_fold_group", spy)
        plan = random_plan(10, rng=3)
        l1 = CacheConfig(256, 8, 2)
        chunks = list(stream_line_chunks(plan, line_size=8, caches=(l1, None)))
        assert groups and not any(groups)
        assert MemoryHierarchy(l1, None).process_line_chunks(chunks) == oracle_stats(
            l1, None, plan
        )[1]

    def test_misaligned_base_address_never_folds(self):
        plan = Split((Split((Small(2), Small(2))), Small(3)))
        l1 = CacheConfig(1024, 64, 2)
        folded = list(stream_line_chunks(plan, line_size=64, caches=(l1, None)))
        assert sum(chunk.weighted_ranges.shape[0] for chunk in folded) > 0
        shifted = list(stream_line_chunks(plan, 64, base_address=8, caches=(l1, None)))
        assert all(chunk.weighted_ranges.shape[0] == 0 for chunk in shifted)
        exact = list(stream_line_chunks(plan, 64, base_address=8))
        hierarchy = MemoryHierarchy(l1, None)
        assert hierarchy.process_line_chunks(shifted) == hierarchy.process_line_chunks(exact)

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        line_elements=st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_folded_stream_counts_every_access(self, n, seed, line_elements):
        plan = random_plan(n, rng=seed)
        line = 8 * line_elements
        l1 = CacheConfig(4 * line, line, 2)
        chunks = list(stream_line_chunks(plan, line_size=line, caches=(l1, None)))
        # The weights account for every access of the full walk.
        assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()
        exact = list(stream_line_chunks(plan, line_size=line))
        hierarchy = MemoryHierarchy(l1, None)
        assert hierarchy.process_line_chunks(chunks) == hierarchy.process_line_chunks(exact)

    def test_fold_keeps_three_invocations_per_group(self):
        # split[small[2],small[2]] runs at stride 8 under the root's unit
        # stride: eight invocations per 8-element line, three kept, the
        # third weighted for six.
        plan = Split((Split((Small(2), Small(2))), Small(3)))
        l1, l2 = CacheConfig(1024, 64, 2), CacheConfig(8192, 64, 4)
        chunks = list(stream_line_chunks(plan, line_size=64, caches=(l1, l2)))
        ranges = np.concatenate([chunk.weighted_ranges for chunk in chunks])
        assert ranges[:, 2].tolist() == [6]
        # Each of the child's two leaf passes reads its 16 elements, one
        # line apart (the write passes are elided): 32 lines per copy.
        assert (ranges[:, 1] - ranges[:, 0]).tolist() == [32]
        assert MemoryHierarchy(l1, l2).process_line_chunks(chunks) == oracle_stats(
            l1, l2, plan
        )[1]
