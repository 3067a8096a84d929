"""Cross-chunk exactness tests for the streaming trace pipeline.

The streamed pipeline (broadcast line stream → bounded line chunks →
warm-started hierarchy simulators) must be *bit-identical* to the eager seed pipeline
(profile → full trace → global collapse → one-shot simulation), for any
chunking.  These tests pin that contract for random traces and random plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.trace import (
    LineChunk,
    collapse_consecutive,
    stream_line_chunks,
    trace_from_nests,
)
from repro.wht.canonical import (
    iterative_plan,
    left_recursive_plan,
    right_recursive_plan,
)
from repro.wht.interpreter import ExecutionStats, PlanInterpreter, analytic_stats
from repro.wht.random_plans import random_plan

L1 = CacheConfig(256, 32, 2, name="L1")
L2 = CacheConfig(2048, 32, 4, name="L2")

INTERPRETER = PlanInterpreter()


def reference_nests(plan):
    """Nest list produced by the seed's recursive schedule (the oracle)."""
    stats = ExecutionStats(n=plan.n)
    nests = []
    INTERPRETER._run(plan, base=0, stride=1, x=None, stats=stats, nests=nests)
    return stats, nests


def sample_plans():
    return (
        [random_plan(8, rng=seed) for seed in range(6)]
        + [iterative_plan(7), right_recursive_plan(9, leaf=1), left_recursive_plan(8)]
    )


class TestRecursiveParity:
    """The analytic counts and the line stream reproduce the recursive
    interpreter exactly."""

    def test_profile_matches_recursive_order(self):
        for plan in sample_plans():
            _, expected = reference_nests(plan)
            assert INTERPRETER.profile(plan, record_trace=True)[1] == expected

    def test_profile_stats_match_recursive_counts(self):
        for plan in sample_plans():
            expected_stats, expected_nests = reference_nests(plan)
            stats, nests = INTERPRETER.profile(plan, record_trace=True)
            assert stats.as_dict() == expected_stats.as_dict()
            assert analytic_stats(plan).as_dict() == expected_stats.as_dict()
            assert nests == expected_nests

    def test_stream_counts_each_access_once(self):
        for plan in sample_plans():
            _, nests = reference_nests(plan)
            chunks = list(stream_line_chunks(plan, line_size=32))
            assert sum(chunk.accesses for chunk in chunks) == trace_from_nests(nests).accesses

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_stream_matches_recursive(self, seed):
        plan = random_plan(7, rng=seed)
        _, nests = reference_nests(plan)
        expected, _ = collapse_consecutive(trace_from_nests(nests).addresses // 32)
        streamed = np.concatenate([c.lines for c in stream_line_chunks(plan, line_size=32)])
        assert np.array_equal(streamed, expected)


class TestStreamedChunks:
    """stream_line_chunks equals the global collapse of the eager trace."""

    @pytest.mark.parametrize("chunk_accesses", [32, 500, 1 << 20])
    @pytest.mark.parametrize("line_size", [32, 64])
    def test_matches_eager_collapse_random_plans(self, line_size, chunk_accesses):
        for plan in sample_plans():
            _, nests = INTERPRETER.profile(plan, record_trace=True)
            trace = trace_from_nests(nests)
            expected, _ = collapse_consecutive(trace.addresses // line_size)
            chunks = list(
                stream_line_chunks(
                    plan,
                    line_size=line_size,
                    chunk_accesses=chunk_accesses,
                )
            )
            streamed = np.concatenate([chunk.lines for chunk in chunks])
            assert np.array_equal(streamed, expected)
            assert sum(chunk.accesses for chunk in chunks) == trace.accesses

    def test_chunks_respect_budget(self):
        plan = iterative_plan(10)
        chunks = list(
            stream_line_chunks(
                plan, line_size=32, chunk_accesses=1024
            )
        )
        assert len(chunks) > 1
        # Children past the budget stream in blocks of invocations, so no
        # chunk overshoots the budget by more than one codelet call's accesses.
        for chunk in chunks[:-1]:
            assert chunk.accesses <= 1024 + 2 * (1 << 10)

    def test_base_address_offsets_lines(self):
        plan = iterative_plan(5)
        plain = list(stream_line_chunks(plan, line_size=32))
        shifted = list(
            stream_line_chunks(
                plan, line_size=32, base_address=4096
            )
        )
        assert np.array_equal(plain[0].lines + 4096 // 32, shifted[0].lines)

    def test_negative_addresses_rejected_at_boundary(self):
        with pytest.raises(ValueError):
            stream_line_chunks(iterative_plan(5), line_size=32, base_address=-100)

    @given(seed=st.integers(0, 10**6), chunk_accesses=st.integers(16, 4096))
    @settings(max_examples=30, deadline=None)
    def test_property_chunking_invariant(self, seed, chunk_accesses):
        plan = random_plan(7, rng=seed)
        _, nests = INTERPRETER.profile(plan, record_trace=True)
        trace = trace_from_nests(nests)
        expected, _ = collapse_consecutive(trace.addresses // 32)
        chunks = list(
            stream_line_chunks(
                plan,
                line_size=32,
                chunk_accesses=chunk_accesses,
            )
        )
        assert np.array_equal(np.concatenate([c.lines for c in chunks]), expected)


class TestChunkedHierarchy:
    """Chunked simulation is bit-identical to single-shot simulation."""

    def hierarchy(self, vectorized=True):
        return MemoryHierarchy(L1, L2, vectorized=vectorized)

    @pytest.mark.parametrize("chunk_accesses", [64, 700, 1 << 20])
    def test_streamed_equals_process_trace_random_plans(self, chunk_accesses):
        for plan in sample_plans():
            _, nests = INTERPRETER.profile(plan, record_trace=True)
            trace = trace_from_nests(nests)
            eager = self.hierarchy().process_trace(trace)
            streamed = self.hierarchy().process_line_chunks(
                stream_line_chunks(
                    plan,
                    line_size=L1.line_size,
                    chunk_accesses=chunk_accesses,
                )
            )
            assert streamed == eager

    def test_streamed_equals_reference_simulators(self):
        for plan in sample_plans()[:4]:
            streamed = self.hierarchy(vectorized=True).process_line_chunks(
                stream_line_chunks(
                    plan,
                    line_size=L1.line_size,
                    chunk_accesses=256,
                )
            )
            _, nests = INTERPRETER.profile(plan, record_trace=True)
            reference = self.hierarchy(vectorized=False).process_trace(
                trace_from_nests(nests)
            )
            assert streamed == reference

    @given(
        seed=st.integers(0, 10**6),
        splits=st.lists(st.integers(1, 200), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_trace_chunking(self, seed, splits):
        # Arbitrary chunkings of an arbitrary line stream: the hierarchy
        # statistics must not depend on where the chunk boundaries fall.
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 512, size=sum(splits)).astype(np.int64)
        single = self.hierarchy().process_line_chunks(
            [LineChunk(lines=lines, accesses=lines.shape[0])]
        )
        chunks = []
        offset = 0
        for size in splits:
            part = lines[offset : offset + size]
            chunks.append(LineChunk(lines=part, accesses=size))
            offset += size
        chunked = self.hierarchy().process_line_chunks(chunks)
        assert chunked == single

    def test_prepare_matches_eager_pipeline(self):
        from repro.machine.machine import MachineConfig, SimulatedMachine

        config = MachineConfig(name="test", l1=L1, l2=L2)
        machine = SimulatedMachine(config)
        for plan in sample_plans():
            prepared = machine.prepare(plan)
            expected_stats, nests = reference_nests(plan)
            trace = trace_from_nests(nests)
            eager = MemoryHierarchy(L1, L2).process_trace(trace)
            assert prepared.hierarchy_stats == eager
            assert prepared.stats.as_dict() == expected_stats.as_dict()
