"""On a noisy machine a search is a function of (machine config, plan, seed).

Every strategy measures through a cost engine, which draws each plan's noise
from its own seed.  So a search repeats bit for bit, on the same session or a
fresh one, and a pruned search can never measure a plan cheaper than the full
search over the same candidates did.
"""

import pytest

import repro
from repro.machine.configs import default_machine
from repro.runtime.cost_engine import CostEngine
from repro.runtime.objectives import WeightedObjective
from repro.search import ModelPrunedSearch, RandomSearch


def noisy_session():
    config = default_machine().config
    assert config.cycle_model.noise_sigma > 0
    return repro.session(machine=config, scale="ci", backend="serial", store="none")


def outcome(result):
    return str(result.best_plan), result.best_cost, [
        (str(plan), cost) for plan, cost in result.history
    ]


@pytest.mark.parametrize("strategy, options", [("dp", {}), ("random", {"samples": 40})])
def test_session_search_repeats_bit_for_bit(strategy, options):
    session = noisy_session()
    first = outcome(session.search(8, strategy=strategy, **options))
    assert outcome(session.search(8, strategy=strategy, **options)) == first
    assert outcome(noisy_session().search(8, strategy=strategy, **options)) == first


@pytest.mark.parametrize("seed", range(4))
def test_pruned_search_never_beats_the_full_search_it_prunes(seed):
    machine = default_machine()
    full = RandomSearch(CostEngine(machine), samples=60).search(9, rng=seed)
    engine = CostEngine(machine)
    report = ModelPrunedSearch(
        model_cost=engine.cost(WeightedObjective.model_combined(1.0, 20.0)),
        measure_cost=engine,
        samples=60,
        keep_fraction=0.25,
    ).search(9, rng=seed)
    measured_in_full = dict(outcome(full)[2])
    for plan, cost in outcome(report.result)[2]:
        assert measured_in_full[plan] == cost  # same candidate, same record
    assert report.result.best_cost >= full.best_cost
