"""The plan's broadcast line stream: chunking and write-pass elision.

Every stream is checked against the eager oracle (the recursive
interpreter's nests, expanded in full): without an L1 the lines themselves,
at any chunk budget, and with one the hierarchy statistics on the reference
simulators.
"""

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
    collapse_consecutive,
    squeeze_plan,
    stream_line_chunks,
    trace_from_nests,
)
from repro.wht.canonical import right_recursive_plan
from repro.wht.grammar import parse_plan
from repro.wht.interpreter import PlanInterpreter
from repro.wht.random_plans import random_plan


def eager_elements(plan):
    """Element indices of the plan's eager trace, in access order."""
    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    return trace_from_nests(nests, element_size=1).addresses


def eager_lines(plan, line_size, element_size=8, base_address=0, elements=None):
    """``collapse_consecutive`` of the plan's eager line sequence (or of
    ``elements``, element indices in access order)."""
    if elements is None:
        elements = eager_elements(plan)
    lines, _ = collapse_consecutive((base_address + elements * element_size) // line_size)
    return lines


def class_zero(plan, low, high):
    """Element indices of ``plan``'s set class 0 over bits ``low:high``,
    those bits deleted: the eager trace of ``squeeze_plan(plan, low, high)``."""
    elements = eager_elements(plan)
    zero = elements[(elements >> low) & ((1 << (high - low)) - 1) == 0]
    return (zero & ((1 << low) - 1)) | (zero >> high << low)


def concatenated(chunks):
    return np.concatenate([chunk.lines for chunk in chunks])


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


class TestStreamAgainstEagerOracle:
    @given(geometry=GEOMETRIES, n=st.integers(1, 10), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_streams_match_the_oracle(self, geometry, n, seed):
        l1, l2 = caches(geometry)
        plan = random_plan(n, rng=seed)
        # Without an L1: exactly the collapsed eager line sequence.
        exact = list(stream_line_chunks(plan, line_size=l1.line_size))
        assert np.array_equal(concatenated(exact), eager_lines(plan, l1.line_size))
        # With one: the eager trace's statistics on the reference caches.
        elided = stream_line_chunks(plan, l1.line_size, l1=l1)
        assert MemoryHierarchy(l1, l2).process_line_chunks(elided) == oracle_stats(l1, l2, plan)[1]

    @given(
        n=st.integers(1, 11),
        seed=st.integers(0, 10**6),
        line_size=st.sampled_from([32, 64, 128]),
        element_size=st.sampled_from([8, 24]),
        squeezed=st.booleans(),
        budget=st.sampled_from(["below", "at", "above"]),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_any_budget_concatenates_to_the_eager_lines(
        self, n, seed, line_size, element_size, squeezed, budget, fraction
    ):
        plan, elements = random_plan(n, rng=seed), None
        if squeezed:
            # A squeezed plan may hold one-element (exponent-0) leaves,
            # which the interpreter does not run: its oracle is class 0.
            whole = random_plan(11, rng=seed)
            plan, elements = squeeze_plan(whole, 2, 7), class_zero(whole, 2, 7)
        accesses = 2 * plan.size * plan.num_leaves()
        chunk_accesses = {
            "below": max(accesses // 256, int(fraction * (accesses - 1)), 1),
            "at": accesses,
            "above": accesses + 1 + int(fraction * accesses),
        }[budget]
        chunks = list(stream_line_chunks(plan, line_size, element_size, 0, chunk_accesses))
        assert all(chunk.lines.dtype == np.int32 for chunk in chunks)
        assert np.array_equal(
            concatenated(chunks), eager_lines(plan, line_size, element_size, elements=elements)
        )
        assert sum(chunk.accesses for chunk in chunks) == accesses
        if budget != "below":
            assert len(chunks) == 1  # a plan that fits the budget is one chunk
        # A chunk passes the budget only as one codelet call.
        largest_call = 2 * (1 << max(leaf.n for leaf in plan.leaves()))
        assert max(chunk.accesses for chunk in chunks) <= max(chunk_accesses, largest_call)

    def test_children_past_the_budget_recurse(self):
        # Every split of a right-recursive plan past the budget recurses at
        # each invocation, down to leaf blocks that fit it.
        plan = right_recursive_plan(10, leaf=1)
        chunks = list(stream_line_chunks(plan, 32, chunk_accesses=64))
        assert len(chunks) > 2 * plan.size * plan.num_leaves() // 64
        assert max(chunk.accesses for chunk in chunks) <= 64
        assert np.array_equal(concatenated(chunks), eager_lines(plan, 32))

    def test_a_call_past_the_budget_is_one_chunk(self):
        # small[6] reads and writes its 64 elements (128 accesses) at stride
        # 4, one line each: its four calls are one chunk apiece, past the
        # budget, while small[2]'s calls stream in blocks within it.
        plan = parse_plan("split[small[6],small[2]]")
        chunks = list(stream_line_chunks(plan, 32, chunk_accesses=16))
        assert [chunk.accesses for chunk in chunks if chunk.accesses > 16] == [128] * 4
        assert [chunk.lines.shape[0] for chunk in chunks if chunk.accesses > 16] == [128] * 4
        assert np.array_equal(concatenated(chunks), eager_lines(plan, 32))

    def test_base_address_offsets_every_line(self):
        plan = random_plan(9, rng=3)
        for base_address in (8, 40, 4096):
            for chunk_accesses in (100, DEFAULT_CHUNK_ACCESSES):
                chunks = stream_line_chunks(
                    plan, 64, base_address=base_address, chunk_accesses=chunk_accesses
                )
                expected = eager_lines(plan, 64, base_address=base_address)
                assert np.array_equal(concatenated(list(chunks)), expected)

    def test_chunks_stay_within_the_budget(self):
        l1 = CacheConfig(4096, 64, 2)
        for seed in range(3):
            plan = random_plan(15, rng=seed)
            chunks = list(stream_line_chunks(plan, line_size=64, l1=l1))
            assert len(chunks) > 1
            assert max(chunk.accesses for chunk in chunks) <= DEFAULT_CHUNK_ACCESSES
            assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()

    def test_rejects_nonpositive_geometry(self):
        plan = random_plan(4, rng=0)
        for arguments in ({"line_size": 0}, {"line_size": 64, "chunk_accesses": 0}):
            with pytest.raises(ValueError):
                stream_line_chunks(plan, **arguments)
        with pytest.raises(ValueError, match="base_address"):
            stream_line_chunks(plan, 64, base_address=-8)

    def test_checks_eagerly_and_streams_lazily(self, monkeypatch):
        expanded = []
        elements = trace._elements
        monkeypatch.setattr(
            trace, "_elements", lambda *arguments: expanded.append(1) or elements(*arguments)
        )
        chunks = stream_line_chunks(random_plan(12, rng=1), 64, chunk_accesses=1024)
        assert expanded == []
        next(chunks)
        assert 0 < len(expanded) < 5

    def test_rejects_plans_past_the_line_range(self):
        with pytest.raises(ValueError, match="2\\^31"):
            stream_line_chunks(right_recursive_plan(29), 64)


class TestElidedStream:
    """With an L1, write passes proven all-hit are dropped; the raw accesses
    still count them."""

    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        line_elements=st.sampled_from([2, 4, 8, 16]),
        chunk_accesses=st.sampled_from([64, DEFAULT_CHUNK_ACCESSES]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_elided_stream_counts_every_access(
        self, n, seed, line_elements, chunk_accesses
    ):
        plan = random_plan(n, rng=seed)
        line = 8 * line_elements
        l1 = CacheConfig(4 * line, line, 2)
        chunks = list(stream_line_chunks(plan, line, chunk_accesses=chunk_accesses, l1=l1))
        assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()
        exact = list(stream_line_chunks(plan, line_size=line))
        hierarchy = MemoryHierarchy(l1, None)
        assert hierarchy.process_line_chunks(chunks) == hierarchy.process_line_chunks(exact)

    @given(
        geometry=GEOMETRIES,
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        chunk_accesses=st.integers(16, 4096),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_elided_lines_do_not_depend_on_the_budget(
        self, geometry, n, seed, chunk_accesses
    ):
        l1, _ = caches(geometry)
        plan = random_plan(n, rng=seed)
        whole = stream_line_chunks(plan, l1.line_size, chunk_accesses=1 << 30, l1=l1)
        chunked = stream_line_chunks(plan, l1.line_size, chunk_accesses=chunk_accesses, l1=l1)
        assert np.array_equal(concatenated(list(chunked)), concatenated(list(whole)))

    @pytest.mark.parametrize("chunk_accesses", [16, 100, DEFAULT_CHUNK_ACCESSES])
    def test_junctions_repeat_no_line(self, chunk_accesses):
        # Runs of one line collapse across chunk junctions on the elided
        # stream too, whose lines have no eager oracle.
        l1 = CacheConfig(1024, 64, 2)
        for seed in range(4):
            plan = random_plan(9, rng=seed)
            chunks = list(stream_line_chunks(plan, 64, chunk_accesses=chunk_accesses, l1=l1))
            lines = concatenated(chunks)
            assert np.all(lines[1:] != lines[:-1]), plan
            assert sum(chunk.accesses for chunk in chunks) == 2 * plan.size * plan.num_leaves()

    def test_check_is_memoised_per_geometry(self):
        l1 = CacheConfig(512, 64, 2, name="memo-test")
        plan = random_plan(10, rng=4)
        list(stream_line_chunks(plan, 64, l1=l1))
        before = trace._write_pass_elidable.cache_info()
        list(stream_line_chunks(plan, 64, l1=l1))
        after = trace._write_pass_elidable.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == plan.num_leaves()


class TestWritePassElidable:
    """The elision predicate, case by case and against the reference LRU
    cache: an elidable call's write pass hits in full and leaves the state
    its read pass left, from any warm state."""

    @pytest.mark.parametrize(
        "elements, stride_bytes, l1, elidable",
        [
            (1, 1 << 20, CacheConfig(128, 64, 1), True),  # one line, read then write
            (4, 64, CacheConfig(256, 64, 1), True),  # four lines, four sets
            (8, 64, CacheConfig(256, 64, 1), False),  # two lines per one-way set
            (8, 64, CacheConfig(512, 64, 2), True),  # two lines per two-way set
            (4, 256, CacheConfig(256, 64, 2), False),  # one set, four lines, two ways
            (16, 8, CacheConfig(256, 64, 1), True),  # two lines, one misaligned more
            (64, 8, CacheConfig(256, 64, 1), False),  # nine lines past four
            (4, 24, CacheConfig(256, 64, 2), False),  # stride neither divides nor spans lines
        ],
    )
    def test_cases(self, elements, stride_bytes, l1, elidable):
        assert trace._write_pass_elidable(elements, stride_bytes, l1) is elidable

    @given(
        geometry=GEOMETRIES,
        k=st.integers(0, 6),
        stride_elements=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        base=st.integers(0, 1 << 12),
        prefix=st.lists(st.integers(0, 1 << 10), max_size=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_elided_write_pass_is_all_hits(
        self, geometry, k, stride_elements, base, prefix
    ):
        l1, _ = caches(geometry)
        if not trace._write_pass_elidable(1 << k, 8 * stride_elements, l1):
            return
        cache = SetAssociativeLRUCache(l1)
        lines = (base + stride_elements * np.arange(1 << k)) * 8 // l1.line_size
        cache.simulate(np.array(prefix, dtype=np.int64))
        cache.simulate(lines)
        state = [list(ways) for ways in cache._sets]
        assert not cache.simulate(lines).any()
        assert [list(ways) for ways in cache._sets] == state
