"""Tests for the batched cost engine and the store-backed cost cache."""

import pytest

from repro.machine.configs import tiny_machine, tiny_machine_config
from repro.machine.machine import PreparedPlanCache, SimulatedMachine
from repro.runtime.backends import MultiprocessBackend, SerialBackend
from repro.runtime.cost_engine import CostEngine
from repro.runtime.objectives import WeightedObjective
from repro.runtime.store import CostLogKey, DiskStore, MemoryStore, NullStore
from repro.search.dp import dp_search
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.encoding import plan_key
from repro.wht.random_plans import random_plan


def per_plan_cycles(machine):
    """The scalar reference the engine must equal: one ``measure`` per plan."""
    return lambda plan: float(machine.measure(plan).cycles)


class TestCostEngine:
    def test_matches_measured_cost_on_noise_free_machine(self):
        engine = CostEngine(tiny_machine(noise_sigma=0.0))
        cost = per_plan_cycles(tiny_machine(noise_sigma=0.0))
        for seed in range(4):
            plan = random_plan(7, rng=seed)
            assert engine(plan) == cost(plan)

    def test_batch_order_and_duplicates(self):
        engine = CostEngine(tiny_machine(noise_sigma=0.0))
        a, b = iterative_plan(6), right_recursive_plan(6)
        values = engine.batch([a, b, a, a])
        assert values[0] == values[2] == values[3]
        assert engine.evaluations == 4
        assert engine.measured == 2  # one prepare per distinct plan

    def test_cache_hits_skip_measurement(self):
        engine = CostEngine(tiny_machine(noise_sigma=0.0))
        plan = iterative_plan(6)
        first = engine(plan)
        assert engine.measured == 1
        assert engine(plan) == first
        assert engine.measured == 1
        assert engine.evaluations == 2

    def test_noisy_costs_are_order_independent(self):
        config = tiny_machine_config(noise_sigma=0.05)
        plans = [random_plan(6, rng=seed) for seed in range(5)]
        forward = CostEngine(SimulatedMachine(config), seed=11).batch(plans)
        backward = CostEngine(SimulatedMachine(config), seed=11).batch(plans[::-1])
        assert forward == backward[::-1]
        # A different engine seed draws different noise.
        other = CostEngine(SimulatedMachine(config), seed=12).batch(plans)
        assert other != forward

    def test_dp_search_parity_scalar_vs_engine_vs_multiprocess(self):
        config = tiny_machine_config(noise_sigma=0.0)
        scalar = dp_search(8, per_plan_cycles(SimulatedMachine(config)))
        serial = dp_search(8, CostEngine(SimulatedMachine(config)))
        multi = dp_search(
            8,
            CostEngine(
                SimulatedMachine(config),
                backend=MultiprocessBackend(max_workers=2),
            ),
        )
        assert serial.best_plans == scalar.best_plans
        assert serial.best_costs == scalar.best_costs
        assert multi.best_plans == scalar.best_plans
        assert multi.best_costs == scalar.best_costs

    def test_warm_store_resumes_with_zero_measurements(self):
        config = tiny_machine_config(noise_sigma=0.0)
        store = MemoryStore()
        cold_engine = CostEngine(SimulatedMachine(config), store=store)
        cold = dp_search(8, cold_engine)
        assert cold_engine.measured == cold_engine.evaluations

        warm_engine = CostEngine(SimulatedMachine(config), store=store)
        warm = dp_search(8, warm_engine)
        assert warm_engine.measured == 0
        assert warm_engine.evaluations > 0
        assert warm.best_plans == cold.best_plans
        assert warm.best_costs == cold.best_costs

    def test_disk_store_persists_across_engines(self, tmp_path):
        config = tiny_machine_config(noise_sigma=0.0)
        store = DiskStore(tmp_path / "costs")
        plan = right_recursive_plan(7)
        value = CostEngine(SimulatedMachine(config), store=store)(plan)

        resumed = CostEngine(SimulatedMachine(config), store=store)
        assert resumed.cached_costs >= 1
        assert resumed(plan) == value
        assert resumed.measured == 0

    def test_different_machines_do_not_share_costs(self):
        store = MemoryStore()
        plan = iterative_plan(6)
        CostEngine(tiny_machine(noise_sigma=0.0), store=store)(plan)
        other_config = tiny_machine_config(noise_sigma=0.25)
        other = CostEngine(SimulatedMachine(other_config), store=store)
        assert other.cached_costs == 0

    def test_concurrent_writers_both_survive_in_the_log(self):
        # The append log makes concurrent engines additive by construction:
        # neither writer can clobber the other's records.
        config = tiny_machine_config(noise_sigma=0.0)
        store = MemoryStore()
        first = CostEngine(SimulatedMachine(config), store=store)
        second = CostEngine(SimulatedMachine(config), store=store)
        plan_a, plan_b = iterative_plan(6), right_recursive_plan(6)
        first(plan_a)
        second(plan_b)
        merged = store.get_cost_records(first.key)
        assert set(merged) >= {plan_key(plan_a), plan_key(plan_b)}

    def test_failed_append_caches_nothing(self):
        # Durability before visibility: a value whose append raised must not
        # be served as a cache hit, or a retry would never persist it.
        class FailingStore(MemoryStore):
            def append_cost_records(self, key, records):
                raise OSError("disk full")

        engine = CostEngine(tiny_machine(noise_sigma=0.0), store=FailingStore())
        plan = iterative_plan(6)
        with pytest.raises(OSError):
            engine.records([plan], ("cycles", "model_instructions", "wall_time"))
        assert engine.known_metrics(plan) == ()

    def test_reload_folds_in_another_writers_records(self):
        config = tiny_machine_config(noise_sigma=0.0)
        store = MemoryStore()
        reader = CostEngine(SimulatedMachine(config), store=store)
        writer = CostEngine(SimulatedMachine(config), store=store)
        plan = iterative_plan(6)
        writer.records([plan], ("cycles", "wall_time"))
        assert reader.known_metrics(plan) == ()
        reader.reload()
        assert "cycles" in reader.known_metrics(plan)
        assert "wall_time" not in reader.known_metrics(plan)
        assert reader.records([plan], ("cycles",)) == writer.records([plan], ("cycles",))
        assert reader.measured == 0

    def test_attaches_prepared_cache(self):
        machine = tiny_machine(noise_sigma=0.0)
        assert machine.prepared_cache is None
        CostEngine(machine)
        assert isinstance(machine.prepared_cache, PreparedPlanCache)
        assert machine.prepared_cache.capacity == PreparedPlanCache.DEFAULT_CAPACITY
        # An attached cache (a session's, say) is kept.
        cache = machine.prepared_cache
        CostEngine(machine)
        assert machine.prepared_cache is cache

    def test_null_store_keeps_engine_local_cache(self):
        engine = CostEngine(tiny_machine(noise_sigma=0.0), store=NullStore())
        plan = iterative_plan(5)
        engine(plan)
        engine(plan)
        assert engine.measured == 1


class TestRecordStores:
    def test_memory_store_roundtrip_isolation_and_clear(self):
        store = MemoryStore()
        key = CostLogKey(machine_hash="abc", seed=3)
        store.append_cost_records(key, {"small[1]": {"cycles": 2.5}})
        records = store.get_cost_records(key)
        assert records == {"small[1]": {"cycles": 2.5}}
        records["small[1]"]["cycles"] = 99.0  # mutating the copy must not affect the store
        assert store.get_cost_records(key) == {"small[1]": {"cycles": 2.5}}
        store.clear()
        assert store.get_cost_records(key) == {}

    def test_disk_store_roundtrip_and_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        key = CostLogKey(machine_hash="abc")
        assert store.get_cost_records(key) == {}
        store.append_cost_records(
            key, {"small[2]": {"cycles": 10.0}, "small[3]": {"cycles": 20.0}}
        )
        assert store.get_cost_records(key) == {
            "small[2]": {"cycles": 10.0},
            "small[3]": {"cycles": 20.0},
        }
        store.clear()
        assert store.get_cost_records(key) == {}
        assert list(store.cost_logs()) == []

    def test_campaign_files_are_not_record_logs(self, machine):
        # A record log must never be readable as a campaign table and vice
        # versa: the token namespaces are disjoint.
        from repro.runtime.campaigns import campaign_key

        assert CostLogKey(machine_hash="abc").token().startswith("costlog-")
        assert not campaign_key(machine, 5, 10, 0).token().startswith("costlog-")


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestSessionEngine:
    def _session(self, scale, store=None):
        from repro.runtime.session import Session

        return Session(
            machine=SimulatedMachine(tiny_machine_config(noise_sigma=0.0)),
            scale=scale,
            backend=SerialBackend(),
            store=store if store is not None else MemoryStore(),
        )

    def test_repeated_search_is_served_from_the_record_cache(self, scale):
        session = self._session(scale)
        first = session.search(7)
        measured = session.cost_engine().measured
        # The session memoises its engine, so a repeated search measures
        # nothing new and returns the same result.
        again = session.search(7)
        assert session.cost_engine().measured == measured
        assert (again.best_plan, again.best_cost) == (first.best_plan, first.best_cost)
        assert again.history == first.history

    def test_objective_cycles_bit_identical_to_engine_path(self, scale):
        """The default search is the engine's cycles objective, bit for bit."""
        engine_path = self._session(scale, store=MemoryStore()).search(7)
        objective_path = self._session(scale, store=MemoryStore()).search(
            7, objective="cycles"
        )
        assert objective_path.best_plan == engine_path.best_plan
        assert objective_path.best_cost == engine_path.best_cost
        assert objective_path.evaluated == engine_path.evaluated
        assert objective_path.history == engine_path.history

    def test_objective_search_minimises_its_metric(self, scale):
        session = self._session(scale)
        result = session.search(6, objective="l1_misses")
        # The best plan under the miss objective minimises measured misses.
        costs = dict(result.history)
        assert result.best_cost == min(costs.values())

    def test_composite_model_objective_encodes_each_batch_once(self, scale, monkeypatch):
        import repro.runtime.cost_engine as cost_engine_module

        session = self._session(scale)
        encodings = 0
        original = cost_engine_module.encode_plans

        def counting(plans):
            nonlocal encodings
            encodings += 1
            return original(plans)

        monkeypatch.setattr(cost_engine_module, "encode_plans", counting)
        session.cost_engine().cost(WeightedObjective.model_combined()).batch(
            [random_plan(6, rng=seed) for seed in range(6)]
        )
        assert encodings == 1  # one shared encoding feeds both model metrics

    def test_objectives_share_the_session_record_cache(self, scale):
        session = self._session(scale)
        session.search(6, objective="cycles")
        measured = session.cost_engine().measured
        # The combined objective over counter metrics re-measures nothing.
        session.search(6, objective=WeightedObjective.combined())
        assert session.cost_engine().measured == measured
        # A model-metric objective stays measurement-free as well.
        session.search(6, objective="model_instructions")
        assert session.cost_engine().measured == measured

    def test_random_and_exhaustive_accept_objectives(self, scale):
        session = self._session(scale)
        random_result = session.search(
            5, strategy="random", objective="model_instructions", samples=20
        )
        exhaustive_result = session.search(
            5, strategy="exhaustive", objective="model_instructions"
        )
        assert random_result.best_cost >= exhaustive_result.best_cost

    def test_session_close_is_idempotent(self, scale):
        session = self._session(scale)
        with session:
            session.search(5)
        session.close()
