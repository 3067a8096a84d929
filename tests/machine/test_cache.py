"""Tests for the cache simulators."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine.cache import (
    LINE_LIMIT,
    PIECE_LINES,
    CacheConfig,
    CacheStatistics,
    NWayLRUCache,
    SetAssociativeLRUCache,
    TwoWayLRUCache,
    _group_order,
    make_cache,
)
from repro.machine.hierarchy import MemoryHierarchy


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=1024, line_size=64, associativity=2)
        assert config.num_lines == 16
        assert config.num_sets == 8
        assert config.offset_bits == 6
        assert config.index_bits == 3

    def test_line_set_tag_extraction(self):
        config = CacheConfig(size_bytes=1024, line_size=64, associativity=2)
        address = (5 << (6 + 3)) | (3 << 6) | 17  # tag 5, set 3, offset 17
        assert config.set_of(address) == 3
        assert config.tag_of(address) == 5
        assert config.line_of(address) == (5 << 3) | 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_size=64)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_size=48)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_size=64, associativity=3)

    def test_rejects_line_larger_than_cache(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64, line_size=128)

    def test_rejects_excess_associativity(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=128, line_size=64, associativity=4)

    def test_describe_mentions_geometry(self):
        text = CacheConfig(size_bytes=2048, line_size=64, associativity=2, name="L1").describe()
        assert "L1" in text and "2048" in text and "2-way" in text


class TestCacheStatistics:
    def test_hits_and_miss_ratio(self):
        stats = CacheStatistics()
        stats.record(10, 4)
        assert stats.hits == 6
        assert stats.miss_ratio == pytest.approx(0.4)

    def test_empty_ratio_is_zero(self):
        assert CacheStatistics().miss_ratio == 0.0

    def test_rejects_more_misses_than_accesses(self):
        with pytest.raises(ValueError):
            CacheStatistics().record(1, 2)

    def test_record_accumulates(self):
        stats = CacheStatistics(10, 2)
        stats.record(5, 3)
        assert stats.accesses == 15 and stats.misses == 5


class TestReferenceLRU:
    def test_cold_misses(self):
        cache = SetAssociativeLRUCache(CacheConfig(256, 32, 2))
        assert cache.access(0) is True
        assert cache.access(0) is False
        assert cache.access(8) is False  # same line
        assert cache.access(32) is True  # next line

    def test_lru_eviction_order(self):
        # One set (fully associative with 2 ways over 2 lines).
        cache = SetAssociativeLRUCache(CacheConfig(64, 32, 2))
        a, b, c = 0, 1024, 2048  # all map to set 0
        assert cache.access(a) and cache.access(b)
        assert cache.access(a) is False  # a now MRU
        assert cache.access(c) is True  # evicts b
        assert cache.access(a) is False  # a still resident
        assert cache.access(b) is True  # b was evicted

    def test_reset(self):
        cache = SetAssociativeLRUCache(CacheConfig(256, 32, 2))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.access(0) is True

    def test_simulate_matches_access_loop(self):
        config = CacheConfig(512, 32, 4)
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 8192, size=300) * 8
        a = SetAssociativeLRUCache(config)
        b = SetAssociativeLRUCache(config)
        vector = a.simulate(config.line_of(addresses))
        scalar = np.array([b.access(int(addr)) for addr in addresses])
        assert np.array_equal(vector, scalar)


class TestVectorisedCaches:
    """``make_cache`` at associativity 1 (the reuse-gap classifier) and 2
    (the 2-way simulator) vs the oracle."""

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_matches_reference_on_random_traces(self, assoc):
        config = CacheConfig(1024, 32, assoc)
        rng = np.random.default_rng(assoc)
        for _ in range(10):
            addresses = rng.integers(0, 4096, size=400) * 8
            reference = SetAssociativeLRUCache(config).simulate(config.line_of(addresses))
            vectorised = make_cache(config).simulate(config.line_of(addresses))
            assert np.array_equal(reference, vectorised)

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_warm_continuation_matches_reference(self, assoc):
        config = CacheConfig(512, 32, assoc)
        rng = np.random.default_rng(10 + assoc)
        reference = SetAssociativeLRUCache(config)
        vectorised = make_cache(config)
        for _ in range(5):
            addresses = rng.integers(0, 2048, size=200) * 8
            lines = config.line_of(addresses)
            assert np.array_equal(reference.simulate(lines), vectorised.simulate(lines))

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_strided_power_of_two_traces(self, assoc):
        # Power-of-two strides are the pathological pattern for WHT plans.
        config = CacheConfig(2048, 64, assoc)
        for stride in (1, 4, 8, 64, 256, 1024):
            addresses = (np.arange(500, dtype=np.int64) * stride * 8) % (1 << 20)
            reference = SetAssociativeLRUCache(config).simulate(config.line_of(addresses))
            vectorised = make_cache(config).simulate(config.line_of(addresses))
            assert np.array_equal(reference, vectorised), stride

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_line_at_a_time_matches_one_call(self, assoc):
        # One line per call is the finest warm continuation.
        config = CacheConfig(256, 32, assoc)
        lines = config.line_of(np.random.default_rng(3 + assoc).integers(0, 1024, size=150) * 8)
        stepped = make_cache(config)
        single = make_cache(config)
        masks = np.concatenate([stepped.simulate(lines[i : i + 1]) for i in range(lines.size)])
        assert np.array_equal(masks, single.simulate(lines))
        assert stepped.stats == single.stats

    def test_two_way_rejects_wrong_associativity(self):
        with pytest.raises(ValueError):
            TwoWayLRUCache(CacheConfig(256, 32, 1))

    def test_empty_trace(self):
        cache = make_cache(CacheConfig(256, 32, 1))
        assert cache.simulate(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert cache.stats.accesses == 0

    def test_negative_addresses_rejected(self):
        cache = make_cache(CacheConfig(256, 32, 1))
        with pytest.raises(ValueError):
            cache.simulate(cache.config.line_of(np.array([-8])))

    def test_sequential_scan_miss_rate(self):
        # A sequential scan of a large array misses once per line.
        config = CacheConfig(1024, 64, 2)
        addresses = np.arange(0, 64 * 1024, 8, dtype=np.int64)
        misses = TwoWayLRUCache(config).simulate(config.line_of(addresses))
        assert misses.sum() == 64 * 1024 // 64

    def test_working_set_within_cache_only_cold_misses(self):
        config = CacheConfig(4096, 64, 2)
        addresses = np.tile(np.arange(0, 2048, 8, dtype=np.int64), 5)
        cache = TwoWayLRUCache(config)
        misses = cache.simulate(config.line_of(addresses))
        assert misses.sum() == 2048 // 64  # only the first pass misses

    @given(
        assoc=st.sampled_from([1, 2]),
        seed=st.integers(0, 10**6),
        length=st.integers(1, 200),
        spread=st.integers(1, 512),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_vectorised_equals_reference(self, assoc, seed, length, spread):
        config = CacheConfig(512, 32, assoc)
        addresses = np.random.default_rng(seed).integers(0, spread, size=length) * 8
        assert np.array_equal(
            SetAssociativeLRUCache(config).simulate(config.line_of(addresses)),
            make_cache(config).simulate(config.line_of(addresses)),
        )


class TestNWayLRU:
    """The vectorised arbitrary-associativity simulator vs the oracle."""

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16])
    def test_matches_reference_on_random_traces(self, assoc):
        config = CacheConfig(2048, 32, assoc)
        rng = np.random.default_rng(100 + assoc)
        for _ in range(8):
            addresses = rng.integers(0, 4096, size=400) * 8
            reference = SetAssociativeLRUCache(config).simulate(config.line_of(addresses))
            vectorised = NWayLRUCache(config).simulate(config.line_of(addresses))
            assert np.array_equal(reference, vectorised)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16])
    def test_fully_associative_single_set_against_oracle(self, assoc):
        # A single fully associative set is the hardest LRU case: every
        # access contends for the same stack.  (CacheConfig constrains the
        # associativity to powers of two, like the hardware it models.)
        config = CacheConfig(32 * assoc, 32, assoc)
        rng = np.random.default_rng(assoc)
        addresses = rng.integers(0, 2048, size=600) * 8
        assert np.array_equal(
            SetAssociativeLRUCache(config).simulate(config.line_of(addresses)),
            NWayLRUCache(config).simulate(config.line_of(addresses)),
        )

    @pytest.mark.parametrize("assoc", [4, 8, 16])
    def test_warm_continuation_matches_reference(self, assoc):
        # Chunked simulation with warm state must equal one-shot simulation.
        config = CacheConfig(2048, 32, assoc)
        rng = np.random.default_rng(200 + assoc)
        reference = SetAssociativeLRUCache(config)
        vectorised = NWayLRUCache(config)
        for _ in range(6):
            addresses = rng.integers(0, 4096, size=int(rng.integers(1, 300))) * 8
            lines = config.line_of(addresses)
            assert np.array_equal(reference.simulate(lines), vectorised.simulate(lines))

    @pytest.mark.parametrize("assoc", [4, 16])
    def test_warm_state_matches_oracle_stacks(self, assoc):
        config = CacheConfig(1024, 32, assoc)
        rng = np.random.default_rng(assoc)
        reference = SetAssociativeLRUCache(config)
        vectorised = NWayLRUCache(config)
        addresses = rng.integers(0, 4096, size=500) * 8
        reference.simulate(config.line_of(addresses))
        vectorised.simulate(config.line_of(addresses))
        for index in range(config.num_sets):
            # The vectorised stack stores whole lines; the oracle stores tags.
            tags = [
                int(line) >> config.index_bits
                for line in vectorised._stack[index]
                if line >= 0
            ]
            assert tags == reference._sets[index]

    def test_strided_power_of_two_traces(self):
        config = CacheConfig(4096, 64, 16)
        for stride in (1, 4, 8, 64, 256, 1024):
            addresses = (np.arange(600, dtype=np.int64) * stride * 8) % (1 << 20)
            assert np.array_equal(
                SetAssociativeLRUCache(config).simulate(config.line_of(addresses)),
                NWayLRUCache(config).simulate(config.line_of(addresses)),
            ), stride

    def test_lru_eviction_order_fully_associative(self):
        config = CacheConfig(128, 32, 4)  # one set, 4 ways
        cache = NWayLRUCache(config)
        a, b, c, d, e = (i * 1024 for i in range(5))

        def misses(*addresses):
            return cache.simulate(config.line_of(np.array(addresses))).tolist()

        assert misses(a, b, c, d) == [True] * 4
        assert misses(a) == [False]  # a promoted to MRU
        assert misses(e) == [True]  # evicts b (now LRU)
        assert misses(b) == [True]
        assert misses(a) == [False]

    def test_reset(self):
        config = CacheConfig(256, 32, 4)
        cache = NWayLRUCache(config)
        line = config.line_of(np.array([0]))
        cache.simulate(line)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.simulate(line).tolist() == [True]

    def test_empty_trace(self):
        cache = NWayLRUCache(CacheConfig(256, 32, 4))
        assert cache.simulate(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert cache.stats.accesses == 0

    def test_negative_addresses_rejected_unless_trusted(self):
        cache = NWayLRUCache(CacheConfig(256, 32, 4))
        with pytest.raises(ValueError):
            cache.simulate(cache.config.line_of(np.array([-8])))

    @given(
        assoc=st.sampled_from([1, 2, 4, 8, 16]),
        seed=st.integers(0, 10**6),
        length=st.integers(1, 200),
        spread=st.integers(1, 512),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_vectorised_equals_reference(self, assoc, seed, length, spread):
        config = CacheConfig(1024, 32, assoc)
        addresses = np.random.default_rng(seed).integers(0, spread, size=length) * 8
        assert np.array_equal(
            SetAssociativeLRUCache(config).simulate(config.line_of(addresses)),
            NWayLRUCache(config).simulate(config.line_of(addresses)),
        )

    @given(
        seed=st.integers(0, 10**6),
        chunks=st.lists(st.integers(1, 120), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_chunked_equals_single_shot(self, seed, chunks):
        config = CacheConfig(1024, 32, 8)
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1024, size=sum(chunks)) * 8
        single = NWayLRUCache(config).simulate(config.line_of(addresses))
        warm = NWayLRUCache(config)
        parts = []
        offset = 0
        for size in chunks:
            parts.append(warm.simulate(config.line_of(addresses[offset : offset + size])))
            offset += size
        assert np.array_equal(single, np.concatenate(parts))

    @given(
        assoc=st.sampled_from([1, 2, 4, 8, 16, 32]),
        num_sets=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 10**6),
        kinds=st.lists(
            st.sampled_from(["random", "cycle", "hot"]), min_size=1, max_size=8
        ),
        chunks=st.integers(1, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_reuse_gap_classifier_equals_oracle(
        self, assoc, num_sets, seed, kinds, chunks
    ):
        # Per-set cyclic sweeps of period A-1..A+2 put reuse gaps on both
        # sides of the gap <= A shortcut; a hot set inside a long gap forces
        # the exact residue walk, ending just below or at A distinct lines.
        config = CacheConfig(32 * assoc * num_sets, 32, assoc)
        rng = np.random.default_rng(seed)
        lines = np.concatenate(
            [_reuse_gap_segment(kind, rng, assoc, num_sets) for kind in kinds]
        )
        addresses = lines * 32 + rng.integers(0, 32, size=lines.shape[0])
        cuts = np.sort(rng.integers(0, addresses.shape[0] + 1, size=chunks - 1))
        oracle = SetAssociativeLRUCache(config)
        classifier = NWayLRUCache(config)
        for chunk in np.split(addresses, cuts):
            chunk_lines = config.line_of(chunk)
            assert np.array_equal(oracle.simulate(chunk_lines), classifier.simulate(chunk_lines))
        for index in range(num_sets):
            tags = [
                int(line) >> config.index_bits
                for line in classifier._stack[index]
                if line >= 0
            ]
            assert tags == oracle._sets[index]


def _reuse_gap_segment(kind, rng, assoc, num_sets):
    """Line numbers of one trace segment aimed at the reuse-gap classifier."""
    target = int(rng.integers(num_sets))
    tags = rng.permutation(4 * assoc + 8)

    def in_set(tag_indices):
        return tags[tag_indices] * num_sets + target

    if kind == "random":
        size = int(rng.integers(1, 4 * assoc + 8))
        return rng.integers(0, (4 * assoc + 8) * num_sets, size=size)
    if kind == "cycle":
        period = max(1, assoc + int(rng.integers(-1, 3)))
        return in_set(np.arange(period * int(rng.integers(2, 5))) % period)
    # "hot": x, a hot set of h < A lines cycled past A slots, k fresh lines
    # (h + k distinct lines in total, around A), then x again.
    hot = int(rng.integers(1, max(2, assoc)))
    fresh = max(0, assoc - hot + int(rng.integers(-1, 2)))
    cycled = np.arange(int(rng.integers(assoc + 1, 3 * assoc + 3))) % hot
    return in_set(
        np.concatenate([[0], 1 + cycled, 1 + hot + np.arange(fresh), [0]])
    )


class TestLineNumbers:
    """``simulate`` takes int32 line numbers, grouped by a packed-key sort."""

    @pytest.mark.parametrize("wide", [False, True])
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(1, 400),
        distinct=st.sampled_from([1, 3, 64, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_packed_sort_is_a_stable_argsort(self, wide, seed, size, distinct):
        # Key and position bits fit a uint32 word up to 32 in total; the
        # largest key bound forces the int64 words from three keys on.
        pos_bits = (size - 1).bit_length()
        bound = LINE_LIMIT if wide else min(1 << (32 - pos_bits), LINE_LIMIT)
        assume(((bound - 1).bit_length() + pos_bits > 32) == wide)
        # Few distinct keys give long runs of ties, which stability orders.
        span = bound if distinct is None else distinct
        key = bound - 1 - np.random.default_rng(seed).integers(0, span, size=size)
        order = _group_order(key.astype(np.int32), bound)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(key, kind="stable"))

    @given(
        assoc=st.sampled_from([1, 2, 4, 16]),
        num_sets=st.sampled_from([1, 4, 64]),
        seed=st.integers(0, 10**6),
        chunks=st.lists(st.integers(0, 150), min_size=1, max_size=6),
        spread=st.sampled_from([8, 512, LINE_LIMIT]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_int32_lines_match_reference_across_chunks(
        self, assoc, num_sets, seed, chunks, spread
    ):
        config = CacheConfig(32 * assoc * num_sets, 32, assoc)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, spread, size=sum(chunks)).astype(np.int32)
        oracle = SetAssociativeLRUCache(config)
        vectorised = make_cache(config)
        for part in np.split(lines, np.cumsum(chunks)[:-1]):
            assert np.array_equal(oracle.simulate(part), vectorised.simulate(part))
        assert vectorised.stats == oracle.stats

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_a_call_spanning_several_pieces_matches_the_reference(self, assoc):
        config = CacheConfig(32 * assoc * 8, 32, assoc)
        lines = np.random.default_rng(assoc).integers(0, 64, size=2 * PIECE_LINES + 5)
        vectorised = make_cache(config)
        assert np.array_equal(
            SetAssociativeLRUCache(config).simulate(lines), vectorised.simulate(lines)
        )
        assert vectorised.stats.accesses == lines.shape[0]

    def test_lines_beyond_int32_are_rejected(self):
        for cache in (make_cache(CacheConfig(256, 32, a)) for a in (1, 2, 4)):
            with pytest.raises(ValueError, match="line numbers"):
                cache.simulate(np.array([LINE_LIMIT], dtype=np.int64))

    def test_batch_line_space_is_bounded_by_int32(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 2), CacheConfig(2048, 32, 4))
        with pytest.raises(ValueError, match="int32"):
            hierarchy.batch_line_offsets([1 << 30, 1 << 30])
        # The space counts the finer level's lines: 2^30 lines of 64 B are
        # 2^31 L2 lines of 32 B.
        finer_l2 = MemoryHierarchy(CacheConfig(512, 64, 2), CacheConfig(2048, 32, 4))
        with pytest.raises(ValueError, match="int32"):
            finer_l2.batch_line_offsets([1 << 29, 1 << 29])
        MemoryHierarchy(CacheConfig(512, 64, 2), None).batch_line_offsets([1 << 29, 1 << 29])


class TestFactories:
    def test_make_cache_picks_vectorised(self):
        assert isinstance(make_cache(CacheConfig(256, 32, 1)), NWayLRUCache)
        assert isinstance(make_cache(CacheConfig(256, 32, 2)), TwoWayLRUCache)
        assert isinstance(make_cache(CacheConfig(256, 32, 4)), NWayLRUCache)
        assert isinstance(make_cache(CacheConfig(1024, 64, 16)), NWayLRUCache)

    def test_make_cache_reference_override(self):
        assert isinstance(
            make_cache(CacheConfig(256, 32, 1), vectorized=False), SetAssociativeLRUCache
        )

    def test_make_cache_sequential_scan_stats(self):
        config = CacheConfig(256, 32, 2)
        cache = make_cache(config)
        cache.simulate(config.line_of(np.arange(0, 1024, 8)))
        assert cache.stats.accesses == 128
        assert cache.stats.misses == 32
