"""Tests for the combined model and the (alpha, beta) grid optimisation."""

import numpy as np
import pytest

from repro.models.combined import CombinedModel, CorrelationSurface, optimize_combined_model


class TestCombinedModel:
    def test_value(self):
        model = CombinedModel(alpha=1.0, beta=0.05)
        assert model.value(100, 40) == pytest.approx(102.0)

    def test_values_vectorised(self):
        model = CombinedModel(alpha=2.0, beta=1.0)
        out = model.values(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert np.allclose(out, [12.0, 24.0])

    def test_values_shape_mismatch(self):
        with pytest.raises(ValueError):
            CombinedModel().values(np.zeros(3), np.zeros(4))

    def test_value_for_measurement(self, machine):
        from repro.wht.canonical import iterative_plan

        m = machine.measure(iterative_plan(6))
        model = CombinedModel(alpha=1.0, beta=2.0)
        assert model.value_for_measurement(m) == pytest.approx(m.instructions + 2 * m.l1_misses)

    def test_value_for_plan_uses_analytic_models(self, machine):
        from repro.models.cache_misses import CacheMissModel
        from repro.models.instruction_count import InstructionCountModel
        from repro.wht.canonical import right_recursive_plan

        plan = right_recursive_plan(7)
        instruction_model = InstructionCountModel(machine.config.instruction_model)
        miss_model = CacheMissModel.from_machine_config(machine.config)
        model = CombinedModel(alpha=1.0, beta=1.0)
        expected = instruction_model.count(plan) + miss_model.misses(plan)
        assert model.value_for_plan(plan, instruction_model, miss_model) == pytest.approx(expected)

    def test_describe(self):
        assert "0.05" in CombinedModel(beta=0.05).describe()


class TestOptimizeCombinedModel:
    def test_recovers_known_mixture(self):
        rng = np.random.default_rng(0)
        instructions = rng.uniform(1e5, 2e5, size=400)
        misses = rng.uniform(1e3, 5e4, size=400)
        cycles = instructions + 20.0 * misses + rng.normal(0, 2e3, size=400)
        surface = optimize_combined_model(instructions, misses, cycles)
        alpha, beta, rho = surface.best
        assert rho > 0.99
        # The optimal ratio beta/alpha should be near the true cost ratio (20).
        assert 8 <= beta / alpha <= 40

    def test_pure_instruction_data(self):
        rng = np.random.default_rng(1)
        instructions = rng.uniform(1e5, 2e5, size=200)
        misses = rng.uniform(0, 1e3, size=200)  # irrelevant
        cycles = 1.3 * instructions + rng.normal(0, 1e3, size=200)
        surface = optimize_combined_model(instructions, misses, cycles)
        alpha, beta, rho = surface.best
        assert rho > 0.99
        assert beta / max(alpha, 1e-9) < 0.2

    def test_combined_at_least_as_good_as_individuals(self):
        from repro.analysis.pearson import pearson_correlation

        rng = np.random.default_rng(2)
        instructions = rng.uniform(1e5, 3e5, size=300)
        misses = rng.uniform(1e3, 3e4, size=300)
        cycles = instructions + 25 * misses + rng.normal(0, 5e3, size=300)
        surface = optimize_combined_model(instructions, misses, cycles)
        _, _, rho = surface.best
        assert rho >= pearson_correlation(instructions, cycles) - 1e-9
        assert rho >= pearson_correlation(misses, cycles) - 1e-9

    def test_grid_dimensions(self):
        surface = optimize_combined_model(
            np.arange(10.0), np.arange(10.0)[::-1], np.arange(10.0) * 2
        )
        assert surface.alphas.shape == (21,)
        assert surface.betas.shape == (21,)
        assert surface.rho.shape == (21, 21)

    def test_custom_grid(self):
        surface = optimize_combined_model(
            np.arange(10.0),
            np.arange(10.0)[::-1],
            np.arange(10.0) * 3,
            alphas=[0.0, 1.0],
            betas=[0.0, 0.5, 1.0],
        )
        assert surface.rho.shape == (2, 3)

    def test_degenerate_corner_is_nan(self):
        surface = optimize_combined_model(
            np.arange(10.0), np.arange(10.0), np.arange(10.0)
        )
        assert np.isnan(surface.rho[0, 0])

    def test_as_rows_covers_grid(self):
        surface = optimize_combined_model(
            np.arange(10.0), np.arange(10.0)[::-1], np.arange(10.0),
            alphas=[0.0, 1.0], betas=[0.0, 1.0],
        )
        assert len(surface.as_rows()) == 4

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimize_combined_model(np.zeros(3), np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            optimize_combined_model(np.zeros(1), np.zeros(1), np.zeros(1))

    def test_best_model_roundtrip(self):
        surface = optimize_combined_model(
            np.arange(20.0), np.arange(20.0)[::-1], np.arange(20.0) * 1.5
        )
        model = surface.best_model()
        alpha, beta, _ = surface.best
        assert (model.alpha, model.beta) == (alpha, beta)

    def test_noise_ablation_on_the_default_machine(self):
        # The large campaign at the default scale (n = 13, 100 samples) with
        # the cycle noise off, at its default and doubled.
        import repro
        from repro.analysis.pearson import pearson_correlation
        from repro.config import default_scale
        from repro.machine.configs import default_machine

        scale = default_scale()
        rows = []
        for sigma in (0.0, 0.05, 0.10):
            machine = default_machine(noise_sigma=sigma)
            table = repro.session(machine=machine, scale=scale).campaign(scale.large_size, 100)
            rho_i = pearson_correlation(table.instructions, table.cycles)
            _, _, rho_c = optimize_combined_model(
                table.instructions, table.l1_misses, table.cycles
            ).best
            rows.append((rho_i, rho_c))
        noise_free, _, doubled = rows
        # Even noise-free, instructions alone fall short out of cache: the
        # gap is structural, it comes from the misses.
        assert noise_free[0] < 0.999
        # More noise can only weaken the correlations.
        assert doubled[0] <= noise_free[0] + 0.02
        assert doubled[1] <= noise_free[1] + 0.02
        # The combined model stays ahead of instructions alone at every level.
        for rho_i, rho_c in rows:
            assert rho_c >= rho_i - 1e-9


class TestCorrelationSurface:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CorrelationSurface(
                alphas=np.array([0.0, 1.0]),
                betas=np.array([0.0]),
                rho=np.zeros((3, 3)),
            )

    def test_best_prefers_smaller_beta_on_ties(self):
        surface = CorrelationSurface(
            alphas=np.array([0.5, 1.0]),
            betas=np.array([0.0, 0.5]),
            rho=np.array([[0.9, 0.9], [0.9, 0.9]]),
        )
        alpha, beta, rho = surface.best
        assert beta == 0.0 and rho == 0.9
