"""End-to-end integration tests: the whole pipeline on the tiny machine.

These tests exercise the package the way a user following the README would:
build plans, measure them, evaluate the analytic models, run the searches, and
reproduce the paper's qualitative findings at miniature scale.
"""

import numpy as np
import pytest

import repro
from repro.analysis.pearson import pearson_correlation
from repro.models.cache_misses import CacheMissModel
from repro.models.instruction_count import InstructionCountModel
from repro.runtime.campaigns import run_campaign
from repro.runtime.cost_engine import CostEngine
from repro.search.pruned import ModelPrunedSearch
from repro.wht.canonical import canonical_plans
from repro.wht.transform import apply_plan, random_input, wht_reference


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        plan = repro.right_recursive_plan(8)
        assert repro.parse_plan(str(plan)) == plan
        assert repro.instruction_count(plan) > 0
        machine = repro.machine.tiny_machine()
        measurement = machine.measure(plan)
        assert isinstance(measurement, repro.Measurement)

    def test_readme_quickstart_flow(self):
        machine = repro.machine.tiny_machine(noise_sigma=0.0)
        plan = repro.wht.random_plan(8, rng=0)
        x = random_input(8, seed=0)
        assert np.allclose(apply_plan(plan, x), wht_reference(x))
        measurement = machine.measure(plan)
        model = InstructionCountModel(machine.config.instruction_model)
        assert model.count(plan) == measurement.instructions


class TestPaperStoryAtMiniatureScale:
    """The paper's qualitative findings, verified end to end on the tiny machine."""

    @pytest.fixture(scope="class")
    def machine(self):
        return repro.machine.tiny_machine(noise_sigma=0.02, rng=3)

    @pytest.fixture(scope="class")
    def small_table(self, machine):
        return run_campaign(machine, 4, 80, seed=21)

    @pytest.fixture(scope="class")
    def large_table(self, machine):
        return run_campaign(machine, 7, 80, seed=21)

    def test_instruction_correlation_drops_out_of_cache(self, small_table, large_table):
        rho_small = pearson_correlation(small_table.instructions, small_table.cycles)
        rho_large = pearson_correlation(large_table.instructions, large_table.cycles)
        assert rho_small > 0.85
        assert rho_large < rho_small

    def test_combined_model_restores_correlation(self, large_table):
        from repro.models.combined import optimize_combined_model

        rho_instructions = pearson_correlation(large_table.instructions, large_table.cycles)
        surface = optimize_combined_model(
            large_table.instructions, large_table.l1_misses, large_table.cycles
        )
        _, _, rho_combined = surface.best
        assert rho_combined >= rho_instructions

    def test_model_pruning_keeps_a_fast_plan(self, machine, large_table):
        # Discarding the worst half by instruction count must keep a plan
        # within a few percent of the overall best of the sample.
        instructions = large_table.instructions
        cycles = large_table.cycles
        threshold = float(np.median(instructions))
        kept = cycles[instructions <= threshold]
        assert kept.min() <= cycles.min() * 1.05

    def test_analytic_models_track_measurements(self, machine, large_table):
        instruction_model = InstructionCountModel(machine.config.instruction_model)
        miss_model = CacheMissModel.from_machine_config(machine.config)
        modelled_instructions = np.array(
            [instruction_model.count(p) for p in large_table.plans], dtype=float
        )
        modelled_misses = np.array(
            [miss_model.misses(p) for p in large_table.plans], dtype=float
        )
        assert np.array_equal(modelled_instructions, large_table.instructions)
        assert pearson_correlation(modelled_misses, large_table.l1_misses) > 0.6

    def test_pruned_search_saves_measurements_without_losing_much(self, machine):
        engine = CostEngine(machine)
        search = ModelPrunedSearch(
            model_cost=engine.cost("model_instructions"),
            measure_cost=engine,
            samples=60,
            keep_fraction=0.3,
        )
        report = search.search(7, rng=5)
        assert report.measurement_savings > 0.4
        full = [machine.measure(plan).cycles for plan in search.generate_candidates(7, rng=5)]
        assert report.result.best_cost <= min(full) * 1.1

    def test_canonical_story(self, machine):
        # In cache: iterative wins (lowest instruction count).  Out of cache:
        # the right recursive plan overtakes it; the left recursive plan is the
        # slowest of the three.
        small_n = machine.config.l1_capacity_exponent() - 1
        large_n = machine.config.l2_capacity_exponent() + 2
        small = {k: machine.measure(p).cycles for k, p in canonical_plans(small_n).items()}
        large = {k: machine.measure(p).cycles for k, p in canonical_plans(large_n).items()}
        assert small["iterative"] < small["right"] < small["left"]
        assert large["right"] < large["iterative"]
        assert large["left"] > large["right"]
