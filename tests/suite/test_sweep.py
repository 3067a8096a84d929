"""The objective_sweep experiment: shared records, ranks, disagreement."""

from __future__ import annotations

import numpy as np
import pytest

from _suite_helpers import tiny_spec_dict
from repro.runtime.store import MemoryStore
from repro.suite import SpecError, SuiteRun, SuiteSpec
from repro.suite.sweep import DEFAULT_OBJECTIVES, parse_objective

SWEEP = {
    "id": "sweep",
    "kind": "objective_sweep",
    "options": {
        "objectives": ["cycles", "instructions", {"alpha": 1.0, "beta": 0.05}],
        "sizes": [5, 6],
        "count": 12,
    },
}


@pytest.fixture
def sweep_spec():
    return SuiteSpec.from_dict(tiny_spec_dict(experiments=[SWEEP]))


def run_sweep(spec, store):
    result = SuiteRun(spec, store=store).run()
    assert result.ok, result.describe()
    return result.get("sweep")


def test_sweep_labels_populations_and_tables(sweep_spec):
    unit = run_sweep(sweep_spec, MemoryStore())
    sweep = unit.figure
    assert sweep.sizes == (5, 6)
    assert sweep.labels == ("cycles", "instructions", "1*instructions + 0.05*l1_misses")
    for n in sweep.sizes:
        population = sweep.population[n]
        assert 0 < len(population) <= 12
        assert len(set(population)) == len(population)
        for label in sweep.labels:
            assert sweep.values[n][label].shape == (len(population),)

    ranks_table = unit.tables["best_plan_ranks"]
    assert ranks_table.headers[:3] == ("n", "objective", "best_plan")
    assert len(ranks_table.rows) == len(sweep.sizes) * len(sweep.labels)
    disagreement = unit.tables["disagreement"]
    assert disagreement.headers == (
        "n", "objective_a", "objective_b", "spearman_rho", "kendall_tau"
    )
    # One row per unordered objective pair per size.
    assert len(disagreement.rows) == len(sweep.sizes) * 3


def test_objectives_after_the_first_cost_no_extra_measurements(sweep_spec):
    unit = run_sweep(sweep_spec, MemoryStore())
    assert unit.artifact["extra_measurements_after_records"] == 0
    # The one records() pass per size accounts for every measurement the
    # whole unit performed.
    assert unit.measured == sum(unit.figure.population_measured.values())
    assert unit.measured > 0


def test_sweep_replays_from_a_warm_store(sweep_spec):
    store = MemoryStore()
    cold = run_sweep(sweep_spec, store)
    warm = run_sweep(sweep_spec, store)
    assert warm.measured == 0
    for n in cold.figure.sizes:
        assert cold.figure.population[n] == warm.figure.population[n]
        for label in cold.figure.labels:
            np.testing.assert_array_equal(
                cold.figure.values[n][label], warm.figure.values[n][label]
            )
    # Everything but the measurement attribution is identical (the warm run
    # replayed from the store, so its records pass measured nothing).
    cold_artifact = {k: v for k, v in cold.artifact.items() if k != "population_measured"}
    warm_artifact = {k: v for k, v in warm.artifact.items() if k != "population_measured"}
    assert cold_artifact == warm_artifact
    assert set(warm.artifact["population_measured"].values()) == {0}


# The default sweep re-draws the campaign populations (sizes 4 and 7 at the
# CI scale); figure5 materialises the n=7 campaign first.
SHARED_SPEC = tiny_spec_dict(experiments=["figure5", "objective_sweep"])


def test_sweep_over_a_campaign_population_prepares_each_plan_once(prepared_keys):
    result = SuiteRun(SuiteSpec.from_dict(SHARED_SPEC), store=MemoryStore()).run()
    assert result.ok, result.describe()
    assert prepared_keys
    assert len(prepared_keys) == len(set(prepared_keys))
    assert result.get("objective_sweep").figure.sizes == (4, 7)


def test_shared_preparations_leave_the_sweep_unchanged():
    shared = SuiteRun(SuiteSpec.from_dict(SHARED_SPEC), store=MemoryStore()).run()
    alone = SuiteRun(
        SuiteSpec.from_dict(tiny_spec_dict(experiments=["objective_sweep"])),
        store=MemoryStore(),
    ).run()
    assert shared.ok and alone.ok
    shared_sweep, alone_sweep = shared.get("objective_sweep"), alone.get("objective_sweep")
    assert shared_sweep.tables == alone_sweep.tables
    assert shared_sweep.artifact == alone_sweep.artifact


def test_best_plan_ranks_are_self_consistent(sweep_spec):
    sweep = run_sweep(sweep_spec, MemoryStore()).figure
    for n in sweep.sizes:
        for label in sweep.labels:
            winner = sweep.best_plan(n, label)
            assert winner in sweep.population[n]
            # The winner holds the minimum, so its rank under its own
            # objective is the smallest tied-average rank.
            ranks = sweep.ranks(n, label)
            index = sweep.population[n].index(winner)
            assert ranks[index] == ranks.min()


def test_disagreement_is_symmetric_in_range_and_self_correlates(sweep_spec):
    sweep = run_sweep(sweep_spec, MemoryStore()).figure
    for n in sweep.sizes:
        rho, tau = sweep.disagreement(n, "cycles", "cycles")
        assert rho == pytest.approx(1.0)
        assert tau == pytest.approx(1.0)
        for a in sweep.labels:
            for b in sweep.labels:
                rho, tau = sweep.disagreement(n, a, b)
                assert -1.0 <= rho <= 1.0
                assert -1.0 <= tau <= 1.0
                back_rho, back_tau = sweep.disagreement(n, b, a)
                assert rho == pytest.approx(back_rho)
                assert tau == pytest.approx(back_tau)


def test_composite_objective_is_the_stated_linear_combination(sweep_spec):
    sweep = run_sweep(sweep_spec, MemoryStore()).figure
    composite = "1*instructions + 0.05*l1_misses"
    for n in sweep.sizes:
        instructions = sweep.values[n]["instructions"]
        # l1_misses is not an objective of its own here, so recompute the
        # composite through a records-free identity instead: the composite
        # minus 1*instructions must be a nonnegative multiple of 0.05.
        residual = sweep.values[n][composite] - instructions
        assert np.all(residual >= 0)
        np.testing.assert_allclose(residual / 0.05, np.round(residual / 0.05), atol=1e-9)


def test_parse_objective_accepts_the_spec_forms():
    assert parse_objective("cycles").describe() == "cycles"
    assert parse_objective({"alpha": 2.0, "beta": 0.1}).describe() == (
        "2*instructions + 0.1*l1_misses"
    )
    weighted = parse_objective({"weights": {"instructions": 1.5}})
    assert "instructions" in weighted.describe()
    with pytest.raises(SpecError):
        parse_objective("warp_factor")
    with pytest.raises(SpecError):
        parse_objective({"alpha": 1.0})
    with pytest.raises(SpecError):
        parse_objective(42)
    assert len(DEFAULT_OBJECTIVES) == 4
