"""Tests for the prepared-plan cache and of a machine kept across preparations."""

from repro.machine.configs import tiny_machine, tiny_machine_config
from repro.machine.machine import PreparedPlanCache, SimulatedMachine
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.random_plans import random_plan


class TestPreparedPlanCache:
    def test_hit_returns_same_object(self):
        machine = tiny_machine(noise_sigma=0.0)
        machine.prepared_cache = PreparedPlanCache(capacity=8)
        plan = iterative_plan(6)
        first = machine.prepare(plan)
        second = machine.prepare(plan)
        assert second is first
        assert machine.prepared_cache.hits == 1

    def test_structurally_equal_plans_share_entries(self):
        machine = tiny_machine(noise_sigma=0.0)
        machine.prepared_cache = PreparedPlanCache(capacity=8)
        machine.prepare(right_recursive_plan(6))
        assert machine.prepare(right_recursive_plan(6)) is not None
        assert machine.prepared_cache.hits == 1

    def test_results_identical_with_and_without_cache(self):
        config = tiny_machine_config(noise_sigma=0.0)
        cached = SimulatedMachine(config, prepared_cache=PreparedPlanCache(16))
        plain = SimulatedMachine(config)
        for seed in range(5):
            plan = random_plan(8, rng=seed)
            a = cached.prepare(plan)
            b = plain.prepare(plan)
            assert a.hierarchy_stats == b.hierarchy_stats
            assert a.stats == b.stats

    def test_lru_eviction_is_bounded(self):
        cache = PreparedPlanCache(capacity=2)
        machine = tiny_machine(noise_sigma=0.0)
        machine.prepared_cache = cache
        for n in (4, 5, 6, 7):
            machine.prepare(iterative_plan(n))
        assert len(cache) == 2
        # The oldest entry was evicted: preparing it again is a miss.
        misses_before = cache.misses
        machine.prepare(iterative_plan(4))
        assert cache.misses == misses_before + 1

    def test_measurements_from_cache_are_identical(self):
        config = tiny_machine_config(noise_sigma=0.05)
        machine = SimulatedMachine(config, prepared_cache=PreparedPlanCache(8))
        plain = SimulatedMachine(config)
        plan = right_recursive_plan(7)
        machine.prepare(plan)  # warm the cache
        assert (
            machine.measure(plan, rng=42).cycles == plain.measure(plan, rng=42).cycles
        )


class TestWarmMachine:
    """A machine kept across preparations, its set-class geometries
    cached, prepares exactly like fresh machines."""

    def test_warm_machine_prepares_like_fresh_machines(self):
        config = tiny_machine_config(noise_sigma=0.0)
        warm = SimulatedMachine(config)
        for seed in range(5):
            plan = random_plan(9, rng=seed)
            a = warm.prepare(plan)
            b = SimulatedMachine(config).prepare(plan)
            assert a.hierarchy_stats == b.hierarchy_stats
            assert a.stats == b.stats

    def test_stats_identical_on_repeat(self):
        machine = SimulatedMachine(tiny_machine_config(noise_sigma=0.0))
        plan = right_recursive_plan(9)
        first = machine.prepare(plan)
        second = machine.prepare(plan)
        assert first.hierarchy_stats == second.hierarchy_stats
        assert first.stats == second.stats

    def test_class_geometry_is_built_once(self):
        machine = SimulatedMachine(tiny_machine_config(noise_sigma=0.0))
        machine.prepare(random_plan(9, rng=0))
        (geometry,) = machine._classes.values()
        machine.prepare_batch([random_plan(10, rng=seed) for seed in range(3)])
        assert machine._classes == {4: geometry}  # dict equality: the same object
