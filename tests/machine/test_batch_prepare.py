"""Cross-plan bit-identity of the fused batch measurement pipeline.

The batch path — per-plan streams spliced at disjoint line offsets, one
warm-started simulator pass per level, analytic full-coverage shortcuts,
repeated-pass elision — must be *bit-identical* to preparing every plan
individually through the eager reference pipeline, for any batch
composition, any chunking of the super-stream, and any cache geometry.
These tests pin that contract over the enumerated plan space, random RSU
batches and Hypothesis-driven geometries.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine import machine as machine_module
from repro.machine.cache import CacheConfig, SetAssociativeLRUCache
from repro.machine.configs import default_machine_config, opteron_like, tiny_machine
from repro.machine.hierarchy import HierarchyStatistics, MemoryHierarchy
from repro.machine.machine import MachineConfig, PreparedPlanCache, SimulatedMachine
from repro.machine.trace import (
    DEFAULT_CHUNK_ACCESSES,
    LineChunk,
    SplicedLineChunk,
    collapse_consecutive,
    splice_line_chunks,
    squeeze_plan,
    stream_line_chunks,
    trace_from_nests,
)
from repro.wht.canonical import balanced_plan, left_recursive_plan
from repro.wht.enumeration import enumerate_plans
from repro.wht.grammar import parse_plan
from repro.wht.interpreter import PlanInterpreter
from repro.wht.random_plans import random_plan, random_plans


def eager_addresses(plan, element_size=8):
    """Byte addresses of the plan's eager trace, in access order."""
    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    return trace_from_nests(nests, element_size=element_size).addresses


def oracle_counts(l1, l2, addresses):
    """Hierarchy statistics of byte ``addresses`` on the reference caches:
    L1 sees each collapsed line and L2 the first byte of each missing L1
    line, so no code is shared with the hierarchy under test."""
    # Consecutive repeats of a line are hits that change no LRU state.
    lines, _ = collapse_consecutive(l1.line_of(addresses))
    l1_misses = lines[SetAssociativeLRUCache(l1).simulate(lines)]
    if l2 is None:
        return HierarchyStatistics(addresses.shape[0], l1_misses.shape[0], 0, 0)
    probes = l2.line_of(l1_misses * l1.line_size)
    l2_misses = int(SetAssociativeLRUCache(l2).simulate(probes).sum())
    return HierarchyStatistics(
        addresses.shape[0], l1_misses.shape[0], probes.shape[0], l2_misses
    )


def oracle_stats(l1, l2, plan, element_size=8):
    """The plan's event counts and its eager trace's :func:`oracle_counts`."""
    stats, _ = PlanInterpreter().profile(plan)
    return stats, oracle_counts(l1, l2, eager_addresses(plan, element_size))


def reference_prepare(config, plan):
    """The eager seed pipeline: full trace, oracle simulators, no shortcuts."""
    return oracle_stats(config.l1, config.l2, plan, config.element_size)


def streamed_prepare(config, plan):
    """The streamed per-plan pipeline without elision or analytic paths,
    with the recursive interpreter's event counts."""
    stats, _ = PlanInterpreter().profile(plan)
    chunks = stream_line_chunks(
        plan, line_size=config.l1.line_size, element_size=config.element_size
    )
    hierarchy = MemoryHierarchy(config.l1, config.l2, vectorized=config.vectorized_caches)
    return stats, hierarchy.process_line_chunks(chunks)


def assert_batch_matches_reference(machine, plans, reference=streamed_prepare):
    prepared = machine.prepare_batch(plans)
    assert len(prepared) == len(plans)
    for plan, prep in zip(plans, prepared):
        ref_stats, ref_hier = reference(machine.config, plan)
        assert prep.hierarchy_stats == ref_hier, plan
        assert prep.stats.as_dict() == ref_stats.as_dict(), plan


class TestPrepareBatchParity:
    def test_enumerated_space_tiny_machine(self):
        machine = tiny_machine(noise_sigma=0.0)
        plans = [plan for n in range(1, 7) for plan in enumerate_plans(n)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)

    def test_mixed_sizes_cross_all_cache_regimes(self):
        # The tiny machine's L1 boundary is at a few dozen elements, so this
        # batch mixes fully-analytic, L2-analytic and fully-simulated plans.
        machine = tiny_machine(noise_sigma=0.0)
        plans = [random_plan(n, rng=seed) for seed in range(3) for n in (3, 5, 7, 9)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)

    def test_default_machine_l2_stream_matches_oracle_caches(self):
        # n=14 doubles overflow the default machine's 16-way, 64-set L2, so
        # the real strided WHT L2 stream goes through the N-way classifier.
        config = default_machine_config(noise_sigma=0.0)
        plans = [balanced_plan(14), left_recursive_plan(14)]
        machine = SimulatedMachine(config)
        assert machine.hierarchy.analytic_l2_misses(2**14 * config.element_size) is None
        oracle = SimulatedMachine(dataclasses.replace(config, vectorized_caches=False))
        for plan, fast, slow in zip(
            plans, machine.prepare_batch(plans), oracle.prepare_batch(plans)
        ):
            stats = fast.hierarchy_stats
            assert 0 < stats.l2_misses < stats.l2_accesses
            assert stats == slow.hierarchy_stats
            # Both machines simulate one set class; the eager oracle all.
            assert stats == reference_prepare(config, plan)[1]

    def test_opteron_rsu_batch(self):
        machine = opteron_like(noise_sigma=0.0)
        plans = random_plans(9, 6, rng=11) + random_plans(12, 3, rng=12)
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)

    def test_batch_equals_singular_prepare(self):
        machine = tiny_machine(noise_sigma=0.0)
        plans = [random_plan(8, rng=seed) for seed in range(8)]
        singular = [SimulatedMachine(machine.config).prepare(p) for p in plans]
        batched = machine.prepare_batch(plans)
        for one, many in zip(singular, batched):
            assert one.hierarchy_stats == many.hierarchy_stats
            assert one.stats == many.stats

    def test_duplicates_prepared_once_and_identical(self):
        machine = tiny_machine(noise_sigma=0.0)
        machine.prepared_cache = PreparedPlanCache(16)
        plan = random_plan(8, rng=3)
        other = random_plan(8, rng=4)
        prepared = machine.prepare_batch([plan, other, plan, plan])
        assert prepared[0] is prepared[2] is prepared[3]
        assert prepared[1] is not prepared[0]

    def test_batch_populates_and_reuses_the_prepared_cache(self):
        machine = tiny_machine(noise_sigma=0.0)
        machine.prepared_cache = PreparedPlanCache(16)
        plans = [random_plan(8, rng=seed) for seed in range(4)]
        first = machine.prepare_batch(plans)
        hits_before = machine.prepared_cache.hits
        second = machine.prepare_batch(plans)
        assert machine.prepared_cache.hits == hits_before + len(plans)
        for a, b in zip(first, second):
            assert a is b

    def test_measurements_identical_through_batch(self):
        config = tiny_machine(noise_sigma=0.05).config
        plans = [random_plan(7, rng=seed) for seed in range(5)]
        serial = [SimulatedMachine(config).measure(p, rng=42).cycles for p in plans]
        machine = SimulatedMachine(config)
        batched = [
            machine.measure_prepared(prep, rng=42).cycles
            for prep in machine.prepare_batch(plans)
        ]
        assert batched == serial

    def test_sparse_elements_disable_the_analytic_shortcuts(self):
        # Elements wider than an L1 line leave untouched lines inside the
        # footprint, so the full-coverage shortcuts must not claim exactness;
        # the batch path falls back to full simulation and stays bit-exact.
        from repro.machine.machine import MachineConfig

        config = MachineConfig(
            name="sparse-elements",
            l1=CacheConfig(256, 8, 2, name="L1"),
            l2=CacheConfig(2048, 16, 4, name="L2"),
            element_size=16,
        )
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=seed) for seed in range(2) for n in (3, 4, 6)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)

    def test_non_dividing_element_size_disables_the_analytic_shortcuts(self):
        # An element size that does not divide the line size can leave the
        # footprint's trailing line untouched, so the shortcut must not fire.
        from repro.machine.machine import MachineConfig

        config = MachineConfig(
            name="odd-elements",
            l1=CacheConfig(256, 8, 2, name="L1"),
            l2=CacheConfig(2048, 16, 4, name="L2"),
            element_size=3,
        )
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=seed) for seed in range(2) for n in (3, 5, 6)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        machine = tiny_machine(noise_sigma=0.0)
        sizes = rng.integers(2, 10, size=int(rng.integers(2, 6)))
        plans = [random_plan(int(n), rng=rng) for n in sizes]
        assert_batch_matches_reference(machine, plans)


GEOMETRIES = st.tuples(
    st.sampled_from([128, 256, 512, 1024]),  # l1 size
    st.sampled_from([16, 32, 64]),  # l1 line
    st.sampled_from([1, 2, 4]),  # l1 assoc
    st.sampled_from([2048, 8192]),  # l2 size
    st.sampled_from([32, 64]),  # l2 line
    st.sampled_from([1, 2, 4, 16]),  # l2 assoc
)


class TestProcessLineChunksBatch:
    """The batch processor equals the eager oracle and, spliced, the same
    plans' one-plan batches."""

    def _streams(self, hierarchy, plans, element_size=8):
        return [
            list(
                stream_line_chunks(
                    plan, line_size=hierarchy.l1_config.line_size, element_size=element_size
                )
            )
            for plan in plans
        ]

    @pytest.mark.parametrize("chunk_lines", [64, 1 << 20])
    def test_matches_per_plan_loop(self, chunk_lines):
        hierarchy = MemoryHierarchy(
            CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4)
        )
        plans = [random_plan(n, rng=seed) for seed in range(3) for n in (5, 7, 8)]
        streams = self._streams(hierarchy, plans)
        expected = [hierarchy.process_line_chunks(iter(chunks)) for chunks in streams]
        offsets = hierarchy.batch_line_offsets(
            [int(max(c.lines.max() for c in chunks if c.lines.size) + 1) for chunks in streams]
        )
        spliced = splice_line_chunks(streams, offsets, chunk_lines=chunk_lines)
        got = hierarchy.process_line_chunks_batch(spliced, len(plans))
        assert got == expected

    @given(geometry=GEOMETRIES, seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_random_geometries(self, geometry, seed):
        l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc = geometry
        assume(l1_assoc <= l1_size // l1_line)
        assume(l2_assoc <= l2_size // l2_line)
        hierarchy = MemoryHierarchy(
            CacheConfig(l1_size, l1_line, l1_assoc, name="L1"),
            CacheConfig(l2_size, l2_line, l2_assoc, name="L2"),
        )
        rng = np.random.default_rng(seed)
        plans = [
            random_plan(int(n), rng=rng)
            for n in rng.integers(2, 9, size=int(rng.integers(1, 5)))
        ]
        streams = self._streams(hierarchy, plans)
        expected = [hierarchy.process_line_chunks(iter(chunks)) for chunks in streams]
        oracle = [
            oracle_stats(hierarchy.l1_config, hierarchy.l2_config, plan)[1]
            for plan in plans
        ]
        assert expected == oracle
        spans = [
            int(max((c.lines.max() for c in chunks if c.lines.size), default=0)) + 1
            for chunks in streams
        ]
        chunk_lines = int(rng.integers(32, 4096))
        spliced = splice_line_chunks(streams, hierarchy.batch_line_offsets(spans), chunk_lines=chunk_lines)
        footprints = [plan.size * 8 for plan in plans]
        got = hierarchy.process_line_chunks_batch(
            spliced, len(plans), footprint_bytes=footprints
        )
        assert got == oracle

    def test_no_l2_hierarchy(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 2), None)
        plans = [random_plan(7, rng=seed) for seed in range(4)]
        streams = self._streams(hierarchy, plans)
        expected = [hierarchy.process_line_chunks(iter(chunks)) for chunks in streams]
        spans = [int(max(c.lines.max() for c in chunks if c.lines.size)) + 1 for chunks in streams]
        spliced = splice_line_chunks(streams, hierarchy.batch_line_offsets(spans))
        assert hierarchy.process_line_chunks_batch(spliced, len(plans)) == expected

    def test_empty_batch(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4))
        assert hierarchy.process_line_chunks_batch(iter(()), 0) == []


class TestSpliceLineChunks:
    def test_segments_preserve_streams_and_offsets(self):
        streams = [
            [LineChunk(lines=np.array([1, 2, 3]), accesses=6)],
            [
                LineChunk(lines=np.array([0, 1]), accesses=4),
                LineChunk(lines=np.array([5]), accesses=2),
            ],
        ]
        chunks = list(splice_line_chunks(streams, [0, 100], chunk_lines=1 << 20))
        assert len(chunks) == 1
        chunk = chunks[0]
        assert np.array_equal(chunk.lines, [1, 2, 3, 100, 101, 105])
        assert np.array_equal(chunk.seg_plan, [0, 1, 1])
        assert np.array_equal(chunk.seg_bounds, [0, 3, 5, 6])
        assert np.array_equal(chunk.seg_accesses, [6, 4, 2])

    def test_flushes_at_the_line_budget(self):
        streams = [
            [LineChunk(lines=np.arange(10), accesses=10)],
            [LineChunk(lines=np.arange(10), accesses=10)],
        ]
        chunks = list(splice_line_chunks(streams, [0, 1024], chunk_lines=8))
        assert len(chunks) == 2
        assert all(chunk.segments == 1 for chunk in chunks)

    def test_rejects_negative_offsets(self):
        stream = [LineChunk(lines=np.array([1]), accesses=1)]
        with pytest.raises(ValueError, match="nonnegative"):
            list(splice_line_chunks([stream], [-1]))

    def test_rejects_mismatched_offsets(self):
        with pytest.raises(ValueError):
            list(splice_line_chunks([[]], [0, 1]))

    @pytest.mark.parametrize("chunk_lines", [150, 300, 1000])
    def test_spliced_chunks_stay_within_the_line_budget(self, chunk_lines):
        # Per-plan chunks of varied lengths: a spliced chunk flushes before
        # a segment would take it past the budget, so it passes the budget
        # only as a single incoming chunk that alone does.
        l1, l2 = CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4)
        hierarchy = MemoryHierarchy(l1, l2)
        plans = [random_plan(n, rng=seed) for seed in range(3) for n in (6, 8, 9)]
        streams = [
            list(stream_line_chunks(plan, 32, chunk_accesses=256, l1=l1))
            for plan in plans
        ]
        expected = [hierarchy.process_line_chunks(iter(chunks)) for chunks in streams]
        offsets = hierarchy.batch_line_offsets([plan.size for plan in plans])
        spliced = list(splice_line_chunks(streams, offsets, chunk_lines=chunk_lines))
        assert sum(chunk.segments for chunk in spliced) == sum(map(len, streams))
        for chunk in spliced:
            assert chunk.lines.shape[0] <= chunk_lines or chunk.segments == 1
        assert any(chunk.segments > 1 for chunk in spliced)
        assert hierarchy.process_line_chunks_batch(iter(spliced), len(plans)) == expected

def _spliced(**overrides):
    fields = dict(
        lines=np.arange(6),
        seg_bounds=np.array([0, 3, 6]),
        seg_plan=np.array([0, 1]),
        seg_accesses=np.array([6, 6]),
    )
    fields.update(overrides)
    return SplicedLineChunk(**fields)


class TestSplicedLineChunkValidation:
    """The batch path's input boundary rejects malformed chunks."""

    def test_well_formed_chunk_is_accepted(self):
        assert _spliced().segments == 2

    def test_bounds_must_start_at_zero(self):
        with pytest.raises(ValueError, match="seg_bounds"):
            _spliced(seg_bounds=np.array([1, 3, 6]))

    def test_bounds_must_be_nondecreasing(self):
        with pytest.raises(ValueError, match="seg_bounds"):
            _spliced(seg_bounds=np.array([0, 4, 3, 6]), seg_plan=np.array([0, 1, 1]))

    def test_bounds_must_end_at_the_line_count(self):
        with pytest.raises(ValueError, match="seg_bounds"):
            _spliced(seg_bounds=np.array([0, 3, 5]))

    def test_bounds_must_not_be_empty(self):
        with pytest.raises(ValueError, match="seg_bounds"):
            _spliced(seg_bounds=np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("name", ["seg_plan", "seg_accesses"])
    def test_per_segment_arrays_need_one_entry_per_segment(self, name):
        with pytest.raises(ValueError, match=name):
            _spliced(**{name: np.zeros(3, dtype=np.int64)})

    def test_line_chunk_needs_an_access_per_line(self):
        with pytest.raises(ValueError, match="fewer than"):
            LineChunk(lines=np.arange(3), accesses=2)

    def test_lines_must_form_a_1d_array(self):
        with pytest.raises(ValueError, match="1-D"):
            LineChunk(lines=np.zeros((2, 2), dtype=np.int64), accesses=4)
        with pytest.raises(ValueError, match="1-D"):
            _spliced(lines=np.zeros((2, 3), dtype=np.int64))

    def test_lines_must_fit_int32(self):
        with pytest.raises(ValueError, match="line numbers"):
            LineChunk(lines=np.array([1 << 31]), accesses=1)
        # An offset that pushes a line past 2^31 wraps negative in int32.
        stream = [LineChunk(lines=np.array([1]), accesses=1)]
        with pytest.raises(ValueError, match="line numbers"):
            list(splice_line_chunks([stream], [(1 << 31) - 1]))


class TestBatchLineOffsets:
    def test_offsets_are_disjoint_and_aligned(self):
        hierarchy = MemoryHierarchy(
            CacheConfig(256, 32, 2), CacheConfig(4096, 64, 4)
        )
        spans = [100, 1, 5000, 17]
        offsets = hierarchy.batch_line_offsets(spans)
        align_bytes = max(
            hierarchy.l1_config.num_sets * hierarchy.l1_config.line_size,
            hierarchy.l2_config.num_sets * hierarchy.l2_config.line_size,
        )
        unit = align_bytes // hierarchy.l1_config.line_size
        for index, (offset, span) in enumerate(zip(offsets, spans)):
            assert offset % unit == 0
            if index:
                assert offset >= offsets[index - 1] + spans[index - 1]

    def test_overflow_is_rejected(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 2), None)
        with pytest.raises(ValueError):
            hierarchy.batch_line_offsets([1 << 61, 1 << 61])


class TestAnalyticCoverage:
    """The full-coverage shortcuts equal simulation wherever they apply."""

    @pytest.mark.parametrize(
        "l1,l2",
        [
            (CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4)),
            (CacheConfig(512, 32, 2), CacheConfig(4096, 64, 4)),
            (CacheConfig(512, 64, 1), CacheConfig(4096, 32, 16)),
            (CacheConfig(1024, 32, 4), None),
        ],
    )
    def test_fitting_footprints_match_simulation(self, l1, l2):
        hierarchy = MemoryHierarchy(l1, l2)
        for seed in range(3):
            for n in range(2, 9):
                plan = random_plan(n, rng=seed)
                footprint = plan.size * 8
                chunks = stream_line_chunks(plan, line_size=l1.line_size, element_size=8)
                simulated = hierarchy.process_line_chunks(chunks)
                analytic = hierarchy.analytic_coverage_stats(
                    footprint, 2 * plan.size * plan.num_leaves()
                )
                if analytic is not None:
                    assert analytic == simulated, (plan, l1, l2)
                l2_misses = hierarchy.analytic_l2_misses(footprint)
                if l2_misses is not None:
                    assert l2_misses == simulated.l2_misses, (plan, l1, l2)

    def test_oversized_footprint_is_not_claimed(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4))
        assert hierarchy.analytic_coverage_stats(4096, 100) is None
        assert hierarchy.analytic_l2_misses(4096) is None
        assert not hierarchy.covers_analytically(4096)


ELISION_GEOMETRIES = st.tuples(
    st.sampled_from([256, 512, 1024, 2048]),  # l1 size
    st.sampled_from([32, 64]),  # l1 line
    st.sampled_from([1, 2, 4]),  # l1 assoc
    st.sampled_from([1, 2, 4]),  # l2 size / l1 size
    st.sampled_from([1, 2]),  # l2 line / l1 line
    st.sampled_from([1, 2, 4, 8, 16]),  # l2 assoc
    st.booleans(),  # has l2
)


def elision_caches(geometry):
    l1_size, l1_line, l1_assoc, l2_scale, l2_line_scale, l2_assoc, has_l2 = geometry
    l1 = CacheConfig(l1_size, l1_line, l1_assoc, name="L1")
    l2_size, l2_line = l1_size * l2_scale, l1_line * l2_line_scale
    if not has_l2 or l2_assoc > l2_size // l2_line:
        return l1, None
    return l1, CacheConfig(l2_size, l2_line, l2_assoc, name="L2")


def _elided_stream(plan, l1, chunk_accesses=1 << 18):
    """The machine's stream: write-pass elision on ``l1``."""
    return list(
        stream_line_chunks(plan, l1.line_size, chunk_accesses=chunk_accesses, l1=l1)
    )


class TestWritePassElision:
    """Elided streams produce bit-identical statistics (never bit-identical
    line sequences — that is the point)."""

    @pytest.mark.parametrize(
        "l1,l2",
        [
            (CacheConfig(256, 32, 1), CacheConfig(2048, 32, 4)),
            (CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4)),
            (CacheConfig(1024, 32, 16), CacheConfig(8192, 64, 4)),
        ],
    )
    def test_stats_match_unelided_stream(self, l1, l2):
        hierarchy = MemoryHierarchy(l1, l2)
        for seed in range(4):
            for n in (5, 7, 9, 10):
                plan = random_plan(n, rng=seed)
                plain = hierarchy.process_line_chunks(
                    stream_line_chunks(
                        plan,
                        line_size=l1.line_size,
                        element_size=8,
                    )
                )
                elided = hierarchy.process_line_chunks(
                    stream_line_chunks(
                        plan,
                        line_size=l1.line_size,
                        element_size=8,
                        l1=l1,
                    )
                )
                assert elided == plain, (plan, l1, l2)

    def test_elision_shrinks_the_stream(self):
        plan = random_plan(10, rng=0)
        plain = sum(
            c.lines.shape[0]
            for c in stream_line_chunks(
                plan, line_size=64, element_size=8
            )
        )
        elided = sum(
            c.lines.shape[0]
            for c in stream_line_chunks(
                plan,
                line_size=64,
                element_size=8,
                l1=CacheConfig(64 * 1024, 64, 2),
            )
        )
        assert elided < plain

    def test_raw_accesses_still_counted(self):
        plan = random_plan(8, rng=1)
        plain = sum(
            c.accesses
            for c in stream_line_chunks(
                plan, line_size=32, element_size=8
            )
        )
        elided = sum(
            c.accesses
            for c in stream_line_chunks(
                plan,
                line_size=32,
                element_size=8,
                l1=CacheConfig(512, 32, 2),
            )
        )
        assert elided == plain

    @given(
        geometry=ELISION_GEOMETRIES,
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        chunk_accesses=st.sampled_from([64, 1 << 18]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_plans(self, geometry, n, seed, chunk_accesses):
        l1, l2 = elision_caches(geometry)
        plan = random_plan(n, rng=seed)
        hierarchy = MemoryHierarchy(l1, l2)
        exact = hierarchy.process_line_chunks(stream_line_chunks(plan, l1.line_size))
        elided = _elided_stream(plan, l1, chunk_accesses)
        assert hierarchy.process_line_chunks(elided) == exact, (plan, l1, l2)
        # The batch path, spliced with a second plan in small chunks, with
        # the analytic L2 shortcut wherever the footprint fits.
        other = random_plan(max(n - 2, 1), rng=seed + 1)
        other_exact = hierarchy.process_line_chunks(stream_line_chunks(other, l1.line_size))
        streams = [elided, _elided_stream(other, l1, chunk_accesses)]
        offsets = hierarchy.batch_line_offsets(
            [plan.size * 8 // l1.line_size + 1, other.size * 8 // l1.line_size + 1]
        )
        batch = hierarchy.process_line_chunks_batch(
            splice_line_chunks(streams, offsets, chunk_lines=chunk_accesses),
            2,
            footprint_bytes=[plan.size * 8, other.size * 8],
        )
        assert batch == [exact, other_exact], (plan, other, l1, l2)

    @given(
        associativity=st.sampled_from([1, 2, 4, 8, 16]),
        prefix=st.lists(st.integers(0, 255), max_size=200),
        sequence=st.lists(st.integers(0, 255), min_size=1, max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_reapplying_a_sequence_reproduces_the_state(
        self, associativity, prefix, sequence
    ):
        # S·N·N = S·N per set, for any warm state S.
        cache = SetAssociativeLRUCache(CacheConfig(64 * associativity * 4, 64, associativity))
        cache.simulate(np.array(prefix + sequence, dtype=np.int64))
        once = [list(ways) for ways in cache._sets]
        cache.simulate(np.array(sequence, dtype=np.int64))
        assert [list(ways) for ways in cache._sets] == once

    def test_thrashing_geometry_prepares_like_the_oracle(self):
        l1, l2 = CacheConfig(2048, 64, 2, name="L1"), CacheConfig(4096, 64, 2, name="L2")
        plan = random_plan(10, rng=0)
        machine = SimulatedMachine(
            dataclasses.replace(default_machine_config(noise_sigma=0.0), l1=l1, l2=l2)
        )
        assert machine.prepare(plan).hierarchy_stats == reference_prepare(
            machine.config, plan
        )[1]

    def test_fitting_plan_streams_its_compulsory_misses(self):
        # A plan whose vector fits L1 misses once per line at each level,
        # elided or not: the analytic coverage statistics.
        config = default_machine_config(noise_sigma=0.0)
        hierarchy = MemoryHierarchy(config.l1, config.l2)
        plan = random_plan(10, rng=5)
        expected = hierarchy.analytic_coverage_stats(
            plan.size * 8, 2 * plan.size * plan.num_leaves()
        )
        assert expected is not None
        for l1 in (None, config.l1):
            chunks = stream_line_chunks(plan, config.l1.line_size, l1=l1)
            assert hierarchy.process_line_chunks(chunks) == expected

    def test_thrashes_l1_fits_l2(self):
        # small[4] at stride 2^8 elements (2 KB) maps its 16 lines onto two
        # of the default L1's 128 sets, which hold two lines each.
        config = default_machine_config(noise_sigma=0.0)
        plan = parse_plan("split[small[4],small[8]]")
        hierarchy = MemoryHierarchy(config.l1, config.l2)
        elided = hierarchy.process_line_chunks(stream_line_chunks(plan, 64, l1=config.l1))
        reference = reference_prepare(config, plan)[1]
        assert elided == reference
        assert reference.l1_misses > reference.l2_misses == plan.size * 8 // 64
        assert SimulatedMachine(config).prepare(plan).hierarchy_stats == reference

    def test_default_machine_elision_fires(self):
        config = default_machine_config(noise_sigma=0.0)
        plan = parse_plan("split[split[small[4],small[4]],split[small[3],small[3]]]")
        exact = list(stream_line_chunks(plan, line_size=64))
        elided = _elided_stream(plan, config.l1)
        assert sum(c.lines.shape[0] for c in elided) < sum(c.lines.shape[0] for c in exact)
        assert sum(c.accesses for c in elided) == sum(c.accesses for c in exact)
        hierarchy = MemoryHierarchy(config.l1, config.l2)
        reference = reference_prepare(config, plan)[1]
        assert hierarchy.process_line_chunks(elided) == reference
        assert SimulatedMachine(config).prepare(plan).hierarchy_stats == reference

    def test_wider_l2_lines_keep_statistics_exact(self):
        # Pairs of L1 lines share one L2 line; elision decides on the L1
        # alone and leaves the L2 probes as the exact stream makes them.
        l1, l2 = CacheConfig(256, 32, 1, name="L1"), CacheConfig(1024, 64, 2, name="L2")
        hierarchy = MemoryHierarchy(l1, l2)
        for seed in range(4):
            plan = random_plan(9, rng=seed)
            elided = hierarchy.process_line_chunks(_elided_stream(plan, l1))
            assert elided == oracle_stats(l1, l2, plan)[1], plan

    def test_misaligned_base_address(self):
        # Elision depends on a call's element stride, not on its base.
        plan = random_plan(10, rng=2)
        l1, l2 = CacheConfig(2048, 64, 2), CacheConfig(8192, 64, 4)
        elided = list(stream_line_chunks(plan, 64, base_address=8, l1=l1))
        exact = list(stream_line_chunks(plan, 64, base_address=8))
        hierarchy = MemoryHierarchy(l1, l2)
        assert hierarchy.process_line_chunks(elided) == hierarchy.process_line_chunks(exact)

    def test_l1_must_match_the_line_size(self):
        with pytest.raises(ValueError, match="L1 line size"):
            stream_line_chunks(random_plan(3, rng=0), 32, l1=CacheConfig(256, 64, 2))


def shared_set_bits(config):
    """Byte-address bits ``low:high`` that index a set at every level,
    read off the cache configurations."""
    levels = [level for level in (config.l1, config.l2) if level is not None]
    low = max(level.line_size for level in levels).bit_length() - 1
    high = min(level.line_size * level.num_sets for level in levels).bit_length() - 1
    return low, max(low, high)


def per_class_counts(config, plan):
    """The oracle counts of the plan's whole eager trace, and of each set
    class of it (its accesses that agree on the shared set bits)."""
    low, high = shared_set_bits(config)
    addresses = eager_addresses(plan, config.element_size)
    classes = (addresses >> low) & ((1 << (high - low)) - 1)
    counts = [
        oracle_counts(config.l1, config.l2, addresses[classes == index])
        for index in range(1 << (high - low))
    ]
    return oracle_counts(config.l1, config.l2, addresses), counts


CLASS_GEOMETRIES = st.tuples(
    st.sampled_from([16, 32, 64]),  # L1 line
    st.sampled_from([1, 2, 4, 8, 16]),  # L1 sets
    st.sampled_from([1, 2, 4]),  # L1 ways
    st.sampled_from([None, 0.5, 1, 2, 4]),  # L2 line over the L1 line, or no L2
    st.sampled_from([1, 2, 4, 8, 16]),  # L2 ways
    st.sampled_from([1, 2, 4, 8]),  # L2 size over the L1 size
)


def class_config(geometry):
    l1_line, l1_sets, l1_ways, l2_line, l2_ways, l2_scale = geometry
    l1 = CacheConfig(l1_line * l1_sets * l1_ways, l1_line, l1_ways, name="L1")
    l2 = None
    if l2_line is not None:
        line = int(l1_line * l2_line)
        l2 = CacheConfig(max(l2_scale * l1.size_bytes, line * l2_ways), line, l2_ways, name="L2")
    return MachineConfig("classes", l1, l2)


class TestSetClasses:
    """A plan misses alike in every set class of the address bits its
    cache levels share, its squeezed plan streams class 0, and the machine
    simulates class 0 on the class geometry for the whole trace."""

    @pytest.mark.parametrize(
        "config, sizes",
        [
            (default_machine_config(noise_sigma=0.0), (9, 12, 13)),
            (opteron_like(noise_sigma=0.0).config, (15,)),
            (tiny_machine().config, (5, 7, 9)),
        ],
    )
    def test_every_class_misses_alike(self, config, sizes):
        for n in sizes:
            plan = random_plan(n, rng=n)
            whole, counts = per_class_counts(config, plan)
            assert len(counts) > 1
            assert counts == [counts[0]] * len(counts), plan
            assert dataclasses.astuple(whole) == tuple(
                len(counts) * count for count in dataclasses.astuple(counts[0])
            )

    @given(geometry=CLASS_GEOMETRIES, extra=st.integers(0, 2), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_every_class_misses_alike(self, geometry, extra, seed):
        config = class_config(geometry)
        # The plan spans every shared set bit.
        n = max(shared_set_bits(config)[1] - 3, 1) + extra
        whole, counts = per_class_counts(config, random_plan(n, rng=seed))
        assert counts == [counts[0]] * len(counts)
        assert dataclasses.astuple(whole) == tuple(
            len(counts) * count for count in dataclasses.astuple(counts[0])
        )

    @given(
        n=st.integers(1, 10),
        seed=st.integers(0, 10**6),
        low=st.integers(0, 8),
        width=st.integers(0, 5),
        line_bits=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_squeezed_plan_streams_class_zero(self, n, seed, low, width, line_bits):
        line_bits = min(line_bits, low)
        plan = random_plan(n, rng=seed)
        squeezed = squeeze_plan(plan, low, low + width)
        assert squeezed.n == n - max(min(n, low + width) - low, 0)
        # Class 0's element indices, the squeezed bits deleted.
        elements = eager_addresses(plan, element_size=1)
        zero = elements[(elements >> low) & ((1 << width) - 1) == 0]
        deleted = (zero & ((1 << low) - 1)) | (zero >> (low + width) << low)
        lines, _ = collapse_consecutive(deleted >> line_bits)
        chunks = list(stream_line_chunks(squeezed, line_size=8 << line_bits))
        assert np.array_equal(np.concatenate([c.lines for c in chunks]), lines)
        assert sum(c.accesses for c in chunks) == zero.shape[0]

    def test_unsqueezed_nodes_are_kept(self):
        plan = random_plan(9, rng=0)
        assert squeeze_plan(plan, 9, 12) is plan
        assert squeeze_plan(plan, 3, 3) is plan

    @pytest.mark.parametrize(
        "machine, n, classes",
        [
            (default_machine_config(noise_sigma=0.0), 14, 64),
            (opteron_like(noise_sigma=0.0).config, 15, 512),
            (tiny_machine().config, 9, 4),
        ],
    )
    def test_presets_simulate_one_class(self, machine, n, classes):
        machine = SimulatedMachine(machine)
        plans = [random_plan(n, rng=seed) for seed in range(2)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)
        assert list(machine._classes) == [classes]

    @given(
        geometry=CLASS_GEOMETRIES,
        sizes=st.lists(st.integers(1, 10), min_size=1, max_size=4),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_batches_match_the_eager_oracle(self, geometry, sizes, seed):
        config = class_config(geometry)
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=seed + index) for index, n in enumerate(sizes)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)
        # Every streamed plan overflows L1, so it spans every shared bit.
        low, high = shared_set_bits(config)
        if machine._classes:
            assert list(machine._classes) == [1 << (high - low)]

    def test_one_set_l1_has_one_class(self):
        config = dataclasses.replace(
            tiny_machine().config, l1=CacheConfig(256, 32, 8, name="L1")
        )
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=n) for n in (6, 8)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)
        assert list(machine._classes) == [1]

    @pytest.mark.parametrize(
        "config, sizes",
        [
            (default_machine_config(noise_sigma=0.0), (9, 12, 13)),
            (opteron_like(noise_sigma=0.0).config, (14,)),
            (tiny_machine().config, (6, 9, 11)),
        ],
    )
    def test_elided_presets_match_the_eager_oracle(self, config, sizes):
        # The machine's class streams drop write passes on every preset.
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=seed) for seed, n in enumerate(sizes)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)
        (class_hierarchy,) = machine._classes.values()
        low, high = machine._class_bits
        squeezed = squeeze_plan(plans[-1], low, high)
        line_size = config.l1.line_size
        lines = [
            sum(c.lines.shape[0] for c in stream_line_chunks(squeezed, line_size, l1=l1))
            for l1 in (None, class_hierarchy.l1_config)
        ]
        assert lines[1] < lines[0]

    @pytest.mark.parametrize(
        "config, sizes",
        [
            (default_machine_config(noise_sigma=0.0), (12, 14, 16)),
            (opteron_like(noise_sigma=0.0).config, (14, 17, 19)),
            (tiny_machine().config, (7, 11, 16)),
        ],
    )
    def test_batches_match_the_full_geometry_stream(self, config, sizes):
        # Class streams past the chunk budget (the tiny machine's n = 16)
        # stream in pieces; every batch matches the full geometry's own
        # unelided stream.
        machine = SimulatedMachine(config)
        plans = [random_plan(n, rng=seed) for seed, n in enumerate(sizes)]
        assert_batch_matches_reference(machine, plans)

    @pytest.mark.parametrize(
        "config, sizes",
        [
            (default_machine_config(noise_sigma=0.0), (12, 14, 16)),
            (opteron_like(noise_sigma=0.0).config, (14, 17, 19)),
            (tiny_machine().config, (7, 11, 16)),
        ],
    )
    def test_every_chunk_budget_gives_the_same_statistics(self, monkeypatch, config, sizes):
        # From pieces far below each codelet call to every class stream
        # whole, the chunk budget never changes a statistic.
        low, high = shared_set_bits(config)
        plans = [random_plan(n, rng=seed) for seed, n in enumerate(sizes)]
        results = []
        for budget in (1 << 10, DEFAULT_CHUNK_ACCESSES, 1 << 30):
            monkeypatch.setattr(
                machine_module,
                "stream_line_chunks",
                functools.partial(stream_line_chunks, chunk_accesses=budget),
            )
            machine = SimulatedMachine(config)
            results.append([p.hierarchy_stats for p in machine.prepare_batch(plans)])
            assert list(machine._classes) == [1 << (high - low)]
        assert results[0] == results[1] == results[2]

    def test_smallest_streamed_plan_sets_the_class_count(self, monkeypatch):
        # With the analytic shortcut off, plans under 2^high bytes stream,
        # and the batch simulates the fewest classes any of them spans.
        monkeypatch.setattr(MemoryHierarchy, "covers_analytically", lambda *_: False)
        machine = tiny_machine()
        plans = [random_plan(n, rng=n) for n in (9, 3, 7)]
        assert_batch_matches_reference(machine, plans, reference=reference_prepare)
        assert list(machine._classes) == [2]  # small[3] spans bit 5 of bits 5-6
