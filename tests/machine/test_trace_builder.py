"""The plan-tree trace builder: template replay, its memo and its folds.

Every stream the builder emits is checked against the eager oracle (the
recursive interpreter's nests, expanded in full): without caches the lines
themselves, with caches the hierarchy statistics on the reference
simulators.  A builder whose template memo is warm must emit exactly what a
fresh one emits.
"""

import collections
import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_prepare import oracle_stats

from repro.machine import trace
from repro.machine.cache import CacheConfig, SetAssociativeLRUCache
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.trace import (
    DEFAULT_CHUNK_ACCESSES,
    TEMPLATE_MEMO_LINES,
    TraceBuilder,
    collapse_consecutive,
    nest_addresses,
    stream_line_chunks,
    trace_from_nests,
)
from repro.wht.canonical import right_recursive_plan
from repro.wht.interpreter import LeafNest, PlanInterpreter
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


def unit_spy(builder):
    """Record every :meth:`TraceBuilder._units` answer of ``builder``."""
    answers = []
    units = builder._units

    def spy(*arguments):
        answers.append(units(*arguments))
        return answers[-1]

    builder._units = spy
    return answers


UNIT_GEOMETRIES = st.tuples(
    st.sampled_from([1, 2, 4]),  # L1 associativity
    st.sampled_from([1, 2, 4]),  # L1 sets
    st.sampled_from([16, 32]),  # L1 line size
    st.sampled_from([None, 1, 2, 8]),  # L2 associativity, or no L2
    st.sampled_from([1, 2]),  # L2 line size over the L1 line size
    st.sampled_from([2, 4]),  # L2 size over the L1 size
)


def unit_caches(geometry):
    l1_assoc, l1_sets, line, l2_assoc, l2_line, l2_scale = geometry
    l1 = CacheConfig(l1_assoc * l1_sets * line, line, l1_assoc, name="L1")
    if l2_assoc is None:
        return l1, None
    l2_bytes = max(l2_scale * l1.size_bytes, l2_assoc * l2_line * line)
    return l1, CacheConfig(l2_bytes, l2_line * line, l2_assoc, name="L2")


class TestTranslatedUnits:
    """With caches, whole elements per line and a line-aligned base, a
    stride loop over disjoint, cache-filling blocks keeps units 0, 1 and
    the last, the last weighted for the rest."""

    @given(geometry=UNIT_GEOMETRIES, extra=st.integers(0, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_unit_folded_streams_match_the_oracle(self, geometry, extra, seed):
        l1, l2 = unit_caches(geometry)
        largest = max(level.size_bytes for level in (l1, l2) if level is not None)
        # The root spans at least four times the larger cache.
        n = (4 * largest // 8).bit_length() - 1 + extra
        plan = Split((random_plan(n - 1, rng=seed), Small(1)))
        builder = TraceBuilder(l1.line_size, caches=(l1, l2))
        answers = unit_spy(builder)
        chunks = list(builder.stream(plan))
        assert any(answers)
        assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()
        assert MemoryHierarchy(l1, l2).process_line_chunks(chunks) == oracle_stats(l1, l2, plan)[1]

    @pytest.mark.parametrize(
        "l1, l2",
        [
            (CacheConfig(256, 32, 2), CacheConfig(1024, 64, 4)),
            (CacheConfig(128, 32, 1), CacheConfig(512, 32, 2)),
            (CacheConfig(256, 32, 4), None),
        ],
    )
    def test_units_from_two_on_miss_alike_at_every_level(self, l1, l2):
        # A leaf child's stride loop under the root: rows of four calls at
        # unit stride, each over four elements four apart, rows 16 apart.
        nest = LeafNest(
            k=2, base=0, outer_count=64, outer_stride=16, inner_count=4, inner_stride=1,
            elem_stride=4,
        )
        rows = TraceBuilder(l1.line_size, caches=(l1, l2))._units(0, 1, 64, 16, 16)
        assert 0 < 4 * rows <= nest.outer_count
        # The incoming state holds some of unit 0's lines.
        prefix = np.random.default_rng(7).integers(0, 64, size=300) * 8
        lines = l1.line_of(np.concatenate([prefix, nest_addresses(nest)]))
        l1_miss = SetAssociativeLRUCache(l1).simulate(lines)
        units = nest.outer_count // rows
        unit = np.repeat(np.arange(units + 1), [300] + [2 * rows * 4 * 4] * units)
        l1_counts = np.bincount(unit[l1_miss], minlength=units + 1)[1:].tolist()
        assert l1_counts[0] < l1_counts[1] and len(set(l1_counts[1:])) == 1
        if l2 is not None:
            probes = l2.line_of(lines[l1_miss] * l1.line_size)
            l2_miss = SetAssociativeLRUCache(l2).simulate(probes)
            l2_counts = np.bincount(unit[l1_miss][l2_miss], minlength=units + 1)[1:].tolist()
            assert l2_counts[0] < l2_counts[2] and len(set(l2_counts[2:])) == 1

    def test_misaligned_base_address_never_unit_folds(self):
        plan = random_plan(12, rng=5)
        l1, l2 = CacheConfig(512, 64, 2), CacheConfig(2048, 64, 4)
        aligned = TraceBuilder(64, caches=(l1, l2))
        fired = unit_spy(aligned)
        list(aligned.stream(plan))
        assert any(fired)
        shifted = TraceBuilder(64, base_address=8, caches=(l1, l2))
        answers = unit_spy(shifted)
        chunks = list(shifted.stream(plan))
        assert answers and not any(answers)
        assert all(chunk.weighted_ranges.shape[0] == 0 for chunk in chunks)
        exact = list(stream_line_chunks(plan, 64, base_address=8))
        hierarchy = MemoryHierarchy(l1, l2)
        assert hierarchy.process_line_chunks(chunks) == hierarchy.process_line_chunks(exact)

    def test_weighted_copies_flatten_nested_weights(self):
        # A stream of six lines whose lines 2:4 stand for three copies,
        # copied once plain and once with weight 5.
        stream = trace._Stream(
            np.arange(6, dtype=np.int32), 6, weighted_ranges=np.array([[2, 4, 3]])
        )
        copies = trace._Copies(
            [stream], np.zeros(2, dtype=np.intp), np.array([0, 10]), np.array([1, 5])
        )
        writer = trace._ChunkWriter()
        writer.append(copies)
        chunk = writer.flush()
        assert chunk.weighted_ranges.tolist() == [
            [2, 4, 3], [6, 8, 5], [8, 10, 15], [10, 12, 5]
        ]
        assert chunk.accesses == 36


class TestCallLoopUnits:
    """The call or invocation loop of a child's row folds into translated
    units as the row loop does: units 0, 1 and the last, the last weighted
    for the rest."""

    @given(
        geometry=UNIT_GEOMETRIES,
        left=st.sampled_from([Small(1), Small(2), Split((Small(1), Small(1)))]),
        extra=st.integers(0, 1),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_call_loop_units_match_the_oracle(self, geometry, left, extra, seed):
        l1, l2 = unit_caches(geometry)
        largest = max(level.size_bytes for level in (l1, l2) if level is not None)
        # The leftmost child runs one row of ``calls`` invocations, which
        # together span at least four times the larger cache.
        n = (4 * largest * left.size // 8).bit_length() - 1 + extra
        left_n = left.size.bit_length() - 1
        plan = Split((left, random_plan(n - left_n, rng=seed)))
        calls = plan.size // left.size
        builder = TraceBuilder(l1.line_size, caches=(l1, l2))
        answers = []
        units = builder._units

        def spy(*arguments):
            answers.append((arguments, units(*arguments)))
            return answers[-1][1]

        builder._units = spy
        chunks = list(builder.stream(plan))
        fired = dict(answers)[0, 1, calls, 1, left.size]
        assert 0 < 4 * fired <= calls
        assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()
        assert MemoryHierarchy(l1, l2).process_line_chunks(chunks) == oracle_stats(l1, l2, plan)[1]

    @pytest.mark.parametrize(
        "l1, l2",
        [
            (CacheConfig(256, 32, 2), CacheConfig(1024, 64, 4)),
            (CacheConfig(128, 32, 1), CacheConfig(512, 32, 2)),
            (CacheConfig(256, 32, 4), None),
        ],
    )
    def test_call_units_from_two_on_miss_alike_at_every_level(self, l1, l2):
        # One row of 256 calls at unit stride, each over four elements 256
        # apart: the leftmost small[2] of a 2^10 root.
        calls = 256
        nest = LeafNest(
            k=2, base=0, outer_count=1, outer_stride=0, inner_count=calls, inner_stride=1,
            elem_stride=calls,
        )
        unit = TraceBuilder(l1.line_size, caches=(l1, l2))._units(0, 1, calls, 1, 4)
        assert 0 < 4 * unit <= calls
        # The incoming state holds some of unit 0's lines.
        rng = np.random.default_rng(11)
        prefix = (rng.integers(0, unit, size=300) + calls * rng.integers(0, 4, size=300)) * 8
        lines = l1.line_of(np.concatenate([prefix, nest_addresses(nest)]))
        l1_miss = SetAssociativeLRUCache(l1).simulate(lines)
        units = calls // unit
        which = np.repeat(np.arange(units + 1), [300] + [2 * 4 * unit] * units)
        l1_counts = np.bincount(which[l1_miss], minlength=units + 1)[1:].tolist()
        assert len(set(l1_counts[1:])) == 1
        # Unit 0 gains from the incoming state at some level (a direct-mapped
        # L1 never hits a call whose four lines share one set).
        gains = l1_counts[0] < l1_counts[1]
        if l2 is not None:
            probes = l2.line_of(lines[l1_miss] * l1.line_size)
            l2_miss = SetAssociativeLRUCache(l2).simulate(probes)
            l2_counts = np.bincount(which[l1_miss][l2_miss], minlength=units + 1)[1:].tolist()
            assert len(set(l2_counts[2:])) == 1
            gains |= l2_counts[0] < l2_counts[2]
        assert gains


@contextlib.contextmanager
def write_pass_spy():
    """Record every :func:`trace._write_pass` answer inside the block."""
    answers = []
    write_pass = trace._write_pass

    def spy(*arguments):
        answers.append(write_pass(*arguments))
        return answers[-1]

    with mock.patch.object(trace, "_write_pass", spy):
        yield answers


def run_call(l1, l2, elements, state):
    """Per-pass misses of one call over ``elements`` lines on the oracle
    caches, entered after the line accesses ``state``: ``(read, write)``
    pairs of (L1 misses, L2 misses) and both caches' sets after each pass."""
    l1_cache, l2_cache = SetAssociativeLRUCache(l1), SetAssociativeLRUCache(l2)
    passes = []
    for lines in (state, elements, elements):
        l1_miss = l1_cache.simulate(lines)
        l2_miss = l2_cache.simulate(l2.line_of(lines[l1_miss] * l1.line_size))
        sets = ([list(w) for w in l1_cache._sets], [list(w) for w in l2_cache._sets])
        passes.append((int(l1_miss.sum()), int(l2_miss.sum()), sets))
    return passes[1:]


class TestThrashingWritePasses:
    """A call whose E lines sit in one set per level, with E at least both
    levels' ways together, has its write pass dropped and counted: E misses
    at each level."""

    @given(geometry=UNIT_GEOMETRIES, extra=st.integers(0, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_thrashing_write_passes_match_the_oracle(self, geometry, extra, seed):
        l1, l2 = unit_caches(geometry)
        levels = [level for level in (l1, l2) if level is not None]
        ways = l1.associativity + (l2.associativity if l2 is not None else 1)
        way_bytes = max(level.num_sets * level.line_size for level in levels)
        # The leftmost small[k] runs calls whose 2^k elements lie a whole
        # number of ways apart at every level.
        k = (ways - 1).bit_length() + extra
        rest = max((way_bytes // 8).bit_length() - 1, 1) + extra
        plan = Split((Small(k), random_plan(rest, rng=seed)))
        with write_pass_spy() as answers:
            chunks = list(stream_line_chunks(plan, l1.line_size, caches=(l1, l2)))
        assert "thrash" in answers
        assert sum(chunk.folded_l1_misses for chunk in chunks) > 0
        assert MemoryHierarchy(l1, l2).process_line_chunks(chunks) == oracle_stats(l1, l2, plan)[1]

    @pytest.mark.parametrize("l1_ways, l2_ways", [(1, 1), (1, 4), (2, 2), (2, 8), (4, 4)])
    def test_write_pass_misses_in_full_and_changes_no_state(self, l1_ways, l2_ways):
        l1 = CacheConfig(2 * l1_ways * 32, 32, l1_ways)
        l2 = CacheConfig(4 * l2_ways * 32, 32, l2_ways)
        elements = l1_ways + l2_ways
        # Lines one L2 way (four lines) apart: one set at each level.
        lines = np.arange(elements) * 4
        rng = np.random.default_rng(l1_ways * 10 + l2_ways)
        for _ in range(200):
            # Random incoming states over the call's lines and others.
            state = rng.integers(0, 4 * elements + 8, size=int(rng.integers(0, 40)))
            (_, _, read_sets), (l1_misses, l2_misses, write_sets) = run_call(
                l1, l2, lines, state
            )
            assert (l1_misses, l2_misses) == (elements, elements)
            assert write_sets == read_sets

    def test_one_way_short_never_fires(self):
        # A1 = 1, A2 = 4, E = 4: after a cold read pass L2's set holds all
        # four lines, so the write pass misses L1 in full but hits L2 on
        # every probe, where a dropped pass would count four L2 misses.
        l1 = CacheConfig(64, 32, 1)
        l2 = CacheConfig(256, 32, 4)
        nest = LeafNest(
            k=2, base=0, outer_count=1, outer_stride=0, inner_count=1, inner_stride=1,
            elem_stride=8,
        )
        with write_pass_spy() as answers:
            chunks = list(stream_line_chunks([nest], 32, caches=(l1, l2)))
        assert answers == ["keep"]
        assert sum(chunk.folded_l1_misses for chunk in chunks) == 0
        (read, _, sets), (l1_misses, l2_misses, _) = run_call(
            l1, l2, l1.line_of(nest_addresses(nest)[:4]), np.zeros(0, dtype=np.int64)
        )
        assert sets[1][0] == [3, 2, 1, 0]  # L2's one set, most recent first
        assert (read, l1_misses, l2_misses) == (4, 4, 0)
