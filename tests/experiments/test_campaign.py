"""Tests for measurement campaigns and tables."""

import numpy as np
import pytest

from repro.runtime.campaigns import measure_plan_list, run_campaign
from repro.runtime.store import MemoryStore
from repro.runtime.table import MeasurementTable
from repro.wht.canonical import canonical_plans


class TestMeasurementTable:
    def test_from_measurements(self, machine):
        plans = list(canonical_plans(6).values())
        measurements = [machine.measure(p) for p in plans]
        table = MeasurementTable.from_measurements(measurements)
        assert len(table) == 3
        assert table.n == 6
        assert table.cycles.shape == (3,)
        assert table.instructions.dtype == float

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MeasurementTable.from_measurements([])

    def test_rejects_mixed_sizes(self, machine):
        from repro.wht.canonical import iterative_plan

        measurements = [machine.measure(iterative_plan(5)), machine.measure(iterative_plan(6))]
        with pytest.raises(ValueError):
            MeasurementTable.from_measurements(measurements)

    def test_column_access_and_unknown_column(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(6).values()]
        )
        assert np.array_equal(table.column("cycles"), table.cycles)
        with pytest.raises(KeyError):
            table.column("nonexistent")

    def test_filtered(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(6).values()]
        )
        mask = np.array([True, False, True])
        filtered = table.filtered(mask)
        assert len(filtered) == 2
        assert filtered.cycles.shape == (2,)

    def test_filtered_length_mismatch(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(6).values()]
        )
        with pytest.raises(ValueError):
            table.filtered(np.array([True]))

    def test_combined_model_values(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(6).values()]
        )
        combined = table.combined_model_values(1.0, 2.0)
        assert np.allclose(combined, table.instructions + 2.0 * table.l1_misses)

    def test_best_row(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(6).values()]
        )
        assert table.cycles[table.best_row()] == table.cycles.min()

    def test_as_dict(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(5).values()]
        )
        payload = table.as_dict()
        assert payload["n"] == 5
        assert len(payload["plans"]) == 3

    def test_from_dict_round_trip(self, machine):
        table = MeasurementTable.from_measurements(
            [machine.measure(p) for p in canonical_plans(5).values()]
        )
        rebuilt = MeasurementTable.from_dict(table.as_dict())
        assert rebuilt.plans == table.plans
        assert table.equals(rebuilt)


class TestRunCampaign:
    def test_run_produces_requested_count(self, machine):
        table = run_campaign(machine, 6, 15, seed=1)
        assert len(table) == 15
        assert table.n == 6

    def test_deterministic_given_seed(self, noisy_machine):
        a = run_campaign(noisy_machine, 6, 10, seed=5)
        b = run_campaign(noisy_machine, 6, 10, seed=5)
        assert a.plans == b.plans
        assert np.allclose(a.cycles, b.cycles)

    def test_different_seeds_differ(self, machine):
        a = run_campaign(machine, 7, 10, seed=1)
        b = run_campaign(machine, 7, 10, seed=2)
        assert a.plans != b.plans

    def test_store_returns_same_object(self, machine):
        store = MemoryStore()
        first = run_campaign(machine, 6, 10, seed=3, store=store)
        assert run_campaign(machine, 6, 10, seed=3, store=store) is first

    def test_without_store_measures_afresh(self, machine):
        assert run_campaign(machine, 6, 10, seed=3) is not run_campaign(machine, 6, 10, seed=3)

    def test_measure_plans_explicit(self, machine):
        plans = list(canonical_plans(6).values())
        table = measure_plan_list(machine, plans, seed=3)
        assert len(table) == 3
        assert table.plans == tuple(plans)

    def test_measure_plans_rejects_empty(self, machine):
        with pytest.raises(ValueError):
            measure_plan_list(machine, [], seed=3)

    def test_invalid_arguments(self, machine):
        with pytest.raises(ValueError):
            run_campaign(machine, 0, 5, seed=3)
        with pytest.raises(ValueError):
            run_campaign(machine, 5, 0, seed=3)
