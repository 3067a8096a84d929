"""Tests for the two-level memory hierarchy."""

import numpy as np
import pytest

from repro.machine.cache import CacheConfig, SetAssociativeLRUCache
from repro.machine.hierarchy import HierarchyStatistics, MemoryHierarchy
from repro.machine.machine import MachineConfig, SimulatedMachine
from repro.machine.trace import trace_from_nests
from repro.wht.canonical import (
    canonical_plans,
    iterative_plan,
    left_recursive_plan,
    right_recursive_plan,
)
from repro.wht.interpreter import PlanInterpreter
from repro.wht.random_plans import RSUSampler, random_plan


def trace_for(plan):
    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    return trace_from_nests(nests)


L1 = CacheConfig(256, 32, 2, name="L1")
L2 = CacheConfig(2048, 32, 4, name="L2")


class TestHierarchyStatistics:
    def test_ratios(self):
        stats = HierarchyStatistics(100, 20, 20, 5)
        assert stats.l1_miss_ratio == pytest.approx(0.2)
        assert stats.l2_miss_ratio == pytest.approx(0.25)

    def test_zero_access_ratios(self):
        stats = HierarchyStatistics(0, 0, 0, 0)
        assert stats.l1_miss_ratio == 0.0
        assert stats.l2_miss_ratio == 0.0

    def test_as_dict_keys(self):
        keys = set(HierarchyStatistics(1, 1, 1, 1).as_dict())
        assert {"l1_accesses", "l1_misses", "l2_accesses", "l2_misses"} <= keys


class TestSetClassGeometry:
    @pytest.mark.parametrize(
        "preset, element_size, bits",
        [
            ("default", 8, (3, 9)),  # byte bits 6-11
            ("opteron", 8, (3, 12)),  # byte bits 6-14
            ("tiny", 8, (2, 4)),  # byte bits 5-6
            ("tiny", 1, (5, 7)),
            ("tiny", 3, (0, 0)),  # not a power of two
            ("tiny", 64, (0, 0)),  # wider than a line
        ],
    )
    def test_shared_set_bits(self, preset, element_size, bits):
        from repro.machine.configs import MACHINE_PRESETS

        config = MACHINE_PRESETS[preset]()
        hierarchy = MemoryHierarchy(config.l1, config.l2)
        assert hierarchy.shared_set_bits(element_size) == bits

    def test_one_set_level_shares_no_bits(self):
        hierarchy = MemoryHierarchy(CacheConfig(256, 32, 8), L2)
        assert hierarchy.shared_set_bits() == (5, 5)

    def test_class_geometry_divides_the_sets(self):
        classes = MemoryHierarchy(L1, L2, vectorized=False).class_geometry(4)
        for level, full in ((classes.l1_config, L1), (classes.l2_config, L2)):
            assert level.num_sets * 4 == full.num_sets
            assert (level.line_size, level.associativity) == (full.line_size, full.associativity)
        assert not classes.vectorized
        assert MemoryHierarchy(L1, None).class_geometry(2).l2_config is None


class TestMemoryHierarchy:
    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(L2, L1)

    def test_l2_sees_only_l1_misses(self):
        hierarchy = MemoryHierarchy(L1, L2)
        stats = hierarchy.process_trace(trace_for(random_plan(7, rng=0)))
        assert stats.l2_accesses == stats.l1_misses
        assert stats.l2_misses <= stats.l2_accesses
        assert stats.l1_misses <= stats.l1_accesses

    def test_l1_accesses_count_every_element_access(self):
        plan = iterative_plan(6)
        trace = trace_for(plan)
        stats = MemoryHierarchy(L1, L2).process_trace(trace)
        assert stats.l1_accesses == trace.accesses

    def test_no_l2_configured(self):
        stats = MemoryHierarchy(L1, None).process_trace(trace_for(iterative_plan(6)))
        assert stats.l2_accesses == 0 and stats.l2_misses == 0

    def test_in_cache_transform_has_only_cold_misses(self):
        # 2^4 doubles = 128 bytes fits the 256-byte L1: cold misses only.
        plan = right_recursive_plan(4)
        stats = MemoryHierarchy(L1, L2).process_trace(trace_for(plan))
        assert stats.l1_misses == plan.size * 8 // L1.line_size

    def test_out_of_cache_transform_misses_more_than_cold(self):
        small = MemoryHierarchy(L1, L2).process_trace(trace_for(iterative_plan(4)))
        large = MemoryHierarchy(L1, L2).process_trace(trace_for(iterative_plan(8)))
        # The in-cache transform only takes cold misses; the out-of-cache one
        # misses well beyond its cold-miss count of N * 8 / line_size.
        assert small.l1_misses == (1 << 4) * 8 // L1.line_size
        assert large.l1_misses > (1 << 8) * 8 // L1.line_size

    def test_vectorised_and_reference_agree(self):
        for seed in range(4):
            plan = random_plan(8, rng=seed)
            trace = trace_for(plan)
            fast = MemoryHierarchy(L1, L2, vectorized=True).process_trace(trace)
            slow = MemoryHierarchy(L1, L2, vectorized=False).process_trace(trace)
            assert fast == slow

    def test_collapse_does_not_change_miss_counts(self):
        # Compare against a raw per-access simulation with no collapsing.
        plan = random_plan(7, rng=3)
        trace = trace_for(plan)
        hierarchy_stats = MemoryHierarchy(L1, L2).process_trace(trace)
        l1 = SetAssociativeLRUCache(L1)
        mask = l1.simulate(L1.line_of(trace.addresses))
        assert int(mask.sum()) == hierarchy_stats.l1_misses

    @pytest.mark.parametrize("l2_line", [16, 64])
    def test_l2_probes_the_first_byte_of_each_missing_l1_line(self, l2_line):
        # L2 lines finer and coarser than L1's: both pipelines convert L1
        # lines to L2 lines by a shift, in opposite directions.
        l2 = CacheConfig(2048, l2_line, 4, name="L2")
        plan = random_plan(9, rng=4)
        trace = trace_for(plan)
        l1_lines = L1.line_of(trace.addresses)
        l1_misses = SetAssociativeLRUCache(L1).simulate(l1_lines)
        probes = l2.line_of(l1_lines[l1_misses] * L1.line_size)
        expected = HierarchyStatistics(
            trace.accesses,
            int(l1_misses.sum()),
            probes.shape[0],
            int(SetAssociativeLRUCache(l2).simulate(probes).sum()),
        )
        assert MemoryHierarchy(L1, l2).process_trace(trace) == expected
        machine = SimulatedMachine(MachineConfig(name="test", l1=L1, l2=l2))
        assert machine.prepare(plan).hierarchy_stats == expected

    def test_describe(self):
        assert "L1" in MemoryHierarchy(L1, L2).describe()
        assert "no L2" in MemoryHierarchy(L1, None).describe()

    def test_canonical_algorithms_differ_beyond_cache(self):
        # Beyond the L1 boundary the recursive (contiguous) algorithm
        # localises better than the strided left recursive one.
        right = MemoryHierarchy(L1, L2).process_trace(trace_for(right_recursive_plan(8)))
        left = MemoryHierarchy(L1, L2).process_trace(trace_for(left_recursive_plan(8)))
        assert right.l1_misses < left.l1_misses

    def test_associativity_on_the_default_l1(self):
        # A 16 KB / 64 B L1 alone at n = 13: more ways never add conflict
        # misses (within 5 %), and the direct-mapped cache the published miss
        # analysis assumes over-counts the strided left recursive algorithm.
        def l1_misses(trace, ways):
            config = CacheConfig(16 * 1024, 64, ways, name=f"{ways}-way")
            return MemoryHierarchy(config, None).process_trace(trace).l1_misses

        plans = dict(canonical_plans(13))
        plans.update({f"random{i}": RSUSampler().sample(13, rng=100 + i) for i in range(3)})
        traces = {name: trace_for(plan) for name, plan in plans.items()}
        for name, trace in traces.items():
            assert l1_misses(trace, 4) <= l1_misses(trace, 2) * 1.05, name
        assert l1_misses(traces["left"], 1) >= l1_misses(traces["left"], 2)


class TestSimulatorHooks:
    """Profilers wrap ``build_l1``/``build_l2`` and the ``simulate`` of the
    simulators they return; every simulated line must pass through it."""

    def test_batch_preparation_simulates_through_simulate(self, monkeypatch):
        seen = {"l1": [], "l2": []}
        built = []
        for level in seen:
            build = getattr(MemoryHierarchy, f"build_{level}")

            def wrapped(self, _build=build, _level=level):
                simulator = _build(self)
                inner = simulator.simulate

                def simulate(lines, check=True):
                    seen[_level].append(lines)
                    return inner(lines, check)

                simulator.simulate = simulate
                built.append((_level, simulator))
                return simulator

            monkeypatch.setattr(MemoryHierarchy, f"build_{level}", wrapped)
        machine = SimulatedMachine(MachineConfig(name="test", l1=L1, l2=L2))
        machine.prepare_batch([random_plan(9, rng=seed) for seed in range(3)])
        for level, calls in seen.items():
            assert calls
            assert all(lines.ndim == 1 and lines.dtype == np.int32 for lines in calls)
            # Nothing reached the simulators' state but through simulate.
            assert sum(sim.stats.accesses for lvl, sim in built if lvl == level) == sum(
                lines.shape[0] for lines in calls
            )
