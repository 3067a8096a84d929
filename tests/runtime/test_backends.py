"""Backend parity: serial, multiprocess and batched must agree bit-for-bit."""

import numpy as np
import pytest

from repro.machine.configs import tiny_machine
from repro.runtime.backends import (
    BatchedBackend,
    ExecutionBackend,
    MultiprocessBackend,
    SerialBackend,
    WorkUnit,
    resolve_backend,
)
from repro.runtime.campaigns import run_campaign, sample_units
from repro.util.rng import as_generator, derive_seed
from repro.wht.canonical import iterative_plan
from repro.wht.random_plans import RSUSampler


def _campaign(backend, noise_sigma=0.03):
    machine = tiny_machine(noise_sigma=noise_sigma)
    return run_campaign(machine, 5, 20, seed=77, backend=backend)


class TestParity:
    def test_batched_matches_serial(self):
        serial = _campaign(SerialBackend())
        batched = _campaign(BatchedBackend())
        assert serial.plans == batched.plans
        for name in serial.columns:
            assert np.array_equal(serial.columns[name], batched.columns[name])

    def test_multiprocess_matches_serial(self):
        serial = _campaign(SerialBackend())
        multi = _campaign(MultiprocessBackend(max_workers=2))
        assert serial.plans == multi.plans
        for name in serial.columns:
            assert np.array_equal(serial.columns[name], multi.columns[name])

    def test_all_backends_identical_with_noise_disabled(self):
        tables = [
            _campaign(backend, noise_sigma=0.0)
            for backend in (SerialBackend(), BatchedBackend(), MultiprocessBackend())
        ]
        assert tables[0].equals(tables[1])
        assert tables[0].equals(tables[2])


class TestWorkUnits:
    def test_sample_units_deterministic(self):
        a = sample_units(5, 10, seed=3)
        b = sample_units(5, 10, seed=3)
        assert [u.plan for u in a] == [u.plan for u in b]
        assert [u.noise_seed for u in a] == [u.noise_seed for u in b]

    @pytest.mark.parametrize("max_children", [None, 2])
    @pytest.mark.parametrize("n, count", [(5, 10), (9, 300)])
    def test_sample_units_match_the_scalar_draw(self, n, count, max_children):
        # The plans of the historical one-at-a-time loop, in the same order,
        # each with its per-index noise seed.
        sampler = RSUSampler(max_children=max_children)
        generator = as_generator(derive_seed(3, "plans", n, count))
        scalar = [sampler.sample(n, generator) for _ in range(count)]
        units = sample_units(n, count, seed=3, max_children=max_children)
        assert [u.plan for u in units] == scalar
        assert [u.noise_seed for u in units] == [
            derive_seed(3, "noise", n, index) for index in range(count)
        ]

    def test_noise_seeds_are_per_index(self):
        units = sample_units(5, 10, seed=3)
        assert len({u.noise_seed for u in units}) == len(units)

    def test_empty_units_short_circuit(self, machine):
        assert MultiprocessBackend().measure_units(machine, []) == []
        assert SerialBackend().measure_units(machine, []) == []


class TestBatchedBackend:
    def test_prepares_each_distinct_plan_once(self, machine, monkeypatch):
        prepared = []
        original = type(machine)._prepare_fused

        def counting(self, plans):
            prepared.extend(plans)
            return original(self, plans)

        monkeypatch.setattr(type(machine), "_prepare_fused", counting)
        plan = iterative_plan(5)
        units = [WorkUnit(plan=plan, noise_seed=i) for i in range(6)]
        out = BatchedBackend().measure_units(machine, units)
        assert prepared == [plan]
        assert len(out) == 6

    def test_noise_still_varies_within_a_batch(self):
        machine = tiny_machine(noise_sigma=0.05)
        plan = iterative_plan(5)
        units = [WorkUnit(plan=plan, noise_seed=i) for i in range(4)]
        cycles = [m.cycles for m in BatchedBackend().measure_units(machine, units)]
        assert len(set(cycles)) > 1


class TestPersistentPool:
    def test_pool_survives_across_measure_units_calls(self):
        machine = tiny_machine(noise_sigma=0.0)
        units = sample_units(5, 4, seed=1)
        with MultiprocessBackend(max_workers=2) as backend:
            backend.measure_units(machine, units)
            first_pool = backend._pool
            assert first_pool is not None
            backend.measure_units(machine, units)
            assert backend._pool is first_pool

    def test_single_unit_short_circuits_without_a_pool(self):
        machine = tiny_machine(noise_sigma=0.0)
        backend = MultiprocessBackend(max_workers=2)
        out = backend.measure_units(machine, sample_units(5, 1, seed=2))
        assert len(out) == 1
        assert backend._pool is None

    def test_changing_machine_restarts_the_pool(self):
        units = sample_units(5, 4, seed=3)
        with MultiprocessBackend(max_workers=2) as backend:
            backend.measure_units(tiny_machine(noise_sigma=0.0), units)
            first_pool = backend._pool
            other = tiny_machine(noise_sigma=0.25)
            expected = SerialBackend().measure_units(other, units)
            got = backend.measure_units(other, units)
            assert backend._pool is not first_pool
            assert [m.cycles for m in got] == [m.cycles for m in expected]

    def test_close_is_idempotent_and_backend_stays_usable(self):
        machine = tiny_machine(noise_sigma=0.0)
        units = sample_units(5, 4, seed=4)
        backend = MultiprocessBackend(max_workers=2)
        backend.measure_units(machine, units)
        backend.close()
        backend.close()
        assert backend._pool is None
        # A closed backend transparently starts a fresh pool.
        out = backend.measure_units(machine, units)
        assert len(out) == 4
        backend.close()

    def test_repr_reports_pool_state(self):
        backend = MultiprocessBackend(max_workers=2)
        assert "idle" in repr(backend)


class TestResolveBackend:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("multiprocess"), MultiprocessBackend)
        assert isinstance(resolve_backend("batched"), BatchedBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")

    def test_protocol_check(self):
        assert isinstance(SerialBackend(), ExecutionBackend)
        assert not isinstance(object(), ExecutionBackend)


class TestBatchedDefault:
    """Campaigns route through the fused batched backend by default."""

    def test_default_campaign_is_bit_identical_to_serial(self):
        machine = tiny_machine(noise_sigma=0.03)
        default = run_campaign(machine, 5, 20, seed=77)  # no backend argument
        serial = _campaign(SerialBackend())
        assert default.plans == serial.plans
        for name in serial.columns:
            assert np.array_equal(default.columns[name], serial.columns[name])

    def test_default_plan_list_is_bit_identical_to_serial(self):
        from repro.runtime.campaigns import measure_plan_list

        from repro.wht.canonical import left_recursive_plan, right_recursive_plan

        plans = [
            iterative_plan(5),
            right_recursive_plan(5),
            left_recursive_plan(5),
        ]
        default = measure_plan_list(tiny_machine(noise_sigma=0.03), plans, seed=5)
        serial = measure_plan_list(
            tiny_machine(noise_sigma=0.03), plans, seed=5, backend=SerialBackend()
        )
        assert default.equals(serial)
