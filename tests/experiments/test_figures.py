"""Tests for the per-figure experiment harnesses."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.config import ci_scale
from repro.experiments.alphabeta import alphabeta_surface
from repro.experiments.canonical import CANONICAL_NAMES
from repro.experiments.correlation_table import correlation_table
from repro.experiments.histograms import (
    LARGE_SIZE_METRICS,
    SMALL_SIZE_METRICS,
    histogram_figure,
)
from repro.experiments.pruning import pruning_figure
from repro.experiments.scatter_fig import scatter_figure
from repro.experiments.theory_table import theory_table
from repro.models.combined import CombinedModel
from repro.runtime.campaigns import run_campaign
from repro.suite.context import REFERENCE_NAMES
from repro.wht.canonical import canonical_plans


@pytest.fixture(scope="module")
def small_table(request):
    from repro.machine.configs import tiny_machine

    return run_campaign(tiny_machine(noise_sigma=0.02), 4, 60, seed=11)


@pytest.fixture(scope="module")
def large_table(request):
    from repro.machine.configs import tiny_machine

    return run_campaign(tiny_machine(noise_sigma=0.02), 7, 60, seed=11)


def sweep_view(machine, top):
    """The figure view of a session whose Figure 1-3 sweep covers ``1..top``."""
    scale = dataclasses.replace(ci_scale(), canonical_max_size=top)
    return repro.session(machine=machine, scale=scale, store="none").suite()


class TestCanonicalSweep:
    def test_sweep_contents(self, machine):
        sweep = sweep_view(machine, 8).figure("figure1")
        assert sweep.sizes == tuple(range(1, 9))
        assert set(sweep.values) == {"iterative", "left", "right", "best"}
        assert len(sweep.best_plans) == 8

    def test_ratios_at_least_one_no_noise(self, machine):
        # With a deterministic machine the DP-best is measured identically in
        # the sweep, so every canonical/best ratio is >= 1.
        sweep = sweep_view(machine, 8).figure("figure1")
        for metric in ("cycles", "instructions"):
            for name, series in sweep.ratios(metric).items():
                assert all(r >= 0.999 for r in series), (metric, name)

    def test_crossover_detected_beyond_l2(self, machine):
        top = machine.config.l2_capacity_exponent() + 2
        crossover = sweep_view(machine, top).figure("figure1").crossover_size("right")
        assert crossover is not None
        assert crossover > machine.config.l1_capacity_exponent()

    def test_instruction_ordering_matches_paper(self, machine):
        sweep = sweep_view(machine, 8).figure("figure2")
        ratios = sweep.ratios("instructions")
        for i, n in enumerate(sweep.sizes):
            if n >= 4:
                assert ratios["iterative"][i] <= ratios["right"][i] <= ratios["left"][i]

    def test_log10_ratios(self, machine):
        logs = sweep_view(machine, 7).figure("figure3").log10_ratios("l1_misses")
        assert set(logs) == set(CANONICAL_NAMES)

    def test_values_come_from_the_canonical_baseline(self, machine):
        view = sweep_view(machine, 6)
        sweep = view.figure("figure1")
        for i, n in enumerate(sweep.sizes):
            table = view.canonical_table(n)
            assert table.plans[REFERENCE_NAMES.index("best")] == sweep.best_plans[n]
            for index, name in enumerate(REFERENCE_NAMES):
                assert sweep.values[name]["l2_misses"][i] == float(table.l2_misses[index])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ci_scale(), canonical_max_size=0)


class TestHistogramFigure:
    def test_small_metrics(self, small_table):
        figure = histogram_figure(small_table, metrics=SMALL_SIZE_METRICS)
        assert figure.metric_names() == SMALL_SIZE_METRICS
        assert figure.sample_count == len(small_table)
        for metric in SMALL_SIZE_METRICS:
            assert figure.histograms[metric].total + figure.outliers_removed[metric] == len(
                small_table
            )

    def test_large_metrics_include_misses(self, large_table):
        figure = histogram_figure(large_table, metrics=LARGE_SIZE_METRICS)
        assert "l1_misses" in figure.histograms

    def test_render(self, small_table):
        text = histogram_figure(small_table).render()
        assert "cycles" in text and "#" in text

    def test_no_filtering_option(self, small_table):
        figure = histogram_figure(small_table, filter_outliers=False)
        assert all(v == 0 for v in figure.outliers_removed.values())


class TestScatterFigure:
    def test_basic(self, large_table):
        data = scatter_figure(large_table)
        assert data.count == len(large_table)
        assert -1.0 <= data.correlation <= 1.0

    def test_with_references(self, large_table, machine):
        refs = {name: machine.measure(p) for name, p in canonical_plans(large_table.n).items()}
        data = scatter_figure(large_table, references=refs)
        assert set(data.references) == {"iterative", "left", "right"}

    def test_reference_size_mismatch(self, large_table, machine):
        from repro.wht.canonical import iterative_plan

        with pytest.raises(ValueError):
            scatter_figure(
                large_table, references={"iterative": machine.measure(iterative_plan(3))}
            )

    def test_miss_scatter(self, large_table):
        data = scatter_figure(large_table, x_metric="l1_misses")
        assert data.x_label == "l1_misses"


class TestAlphaBetaSurface:
    def test_grid_shape_and_best(self, large_table):
        surface = alphabeta_surface(large_table)
        assert surface.rho.shape == (21, 21)
        alpha, beta, rho = surface.best
        assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
        assert -1.0 <= rho <= 1.0

    def test_combined_at_least_individual(self, large_table):
        from repro.analysis.pearson import pearson_correlation

        surface = alphabeta_surface(large_table)
        _, _, rho = surface.best
        rho_i = pearson_correlation(large_table.instructions, large_table.cycles)
        assert rho >= rho_i - 1e-9


class TestPruningFigure:
    def test_instruction_pruning(self, small_table):
        figure = pruning_figure(small_table)
        assert figure.model_label == "instructions"
        assert len(figure.curves) == 3
        for percentile, (threshold, discarded) in figure.safe_thresholds.items():
            assert threshold <= small_table.instructions.max()
            assert 0.0 <= discarded < 1.0

    def test_combined_pruning(self, large_table):
        figure = pruning_figure(large_table, combined=CombinedModel(1.0, 0.05))
        assert "Instructions" in figure.model_label

    def test_conflicting_arguments(self, large_table):
        with pytest.raises(ValueError):
            pruning_figure(
                large_table,
                model_values=large_table.instructions,
                combined=CombinedModel(),
            )

    def test_curve_lookup(self, small_table):
        figure = pruning_figure(small_table)
        assert figure.curve(5.0).percentile == 5.0
        with pytest.raises(KeyError):
            figure.curve(42.0)

    def test_describe(self, small_table):
        assert "top 5%" in pruning_figure(small_table).describe()


class TestCorrelationTable:
    def test_values_in_range(self, small_table, large_table):
        table = correlation_table(small_table, large_table)
        for _, value in table.as_rows():
            assert -1.0 <= value <= 1.0
        assert table.small_n == small_table.n
        assert table.large_n == large_table.n

    def test_best_model(self, small_table, large_table):
        table = correlation_table(small_table, large_table)
        model = table.best_model()
        assert model.alpha == table.best_alpha and model.beta == table.best_beta


class TestTheoryTable:
    def test_rows(self):
        table = theory_table(range(1, 7))
        rows = table.as_rows()
        assert len(rows) == 6
        assert rows[0][1] == 1  # one plan of size 2^1
        assert rows[5][1] == 568
        assert len(table.headers) == len(rows[0])

    def test_growth_column(self):
        table = theory_table([2, 3, 4])
        rows = table.as_rows()
        assert rows[0][2] == pytest.approx(2.0)  # 2 / 1
        assert rows[1][2] == pytest.approx(3.0)  # 6 / 2

    def test_growth_column_for_non_contiguous_sizes(self):
        rows = theory_table([3, 5]).as_rows()
        assert rows[1][2] == pytest.approx(112 / 24)  # W(5)/W(4), not W(5)/W(3)
        assert np.isnan(theory_table([1]).as_rows()[0][2])

    def test_without_extremes(self):
        table = theory_table([3, 4], include_extremes=False)
        assert np.isnan(table.as_rows()[0][3])


class TestModelColumnFigures:
    """The figure kinds accept analytic model metrics wired through
    experiments.model_scores.with_model_columns."""

    @pytest.fixture(scope="class")
    def suite(self):
        import repro
        from repro.config import ci_scale
        from repro.machine.configs import tiny_machine
        from repro.runtime.store import MemoryStore

        sess = repro.session(
            machine=tiny_machine(noise_sigma=0.02, rng=7),
            scale=ci_scale(),
            backend="serial",
            store=MemoryStore(),
        )
        return sess.suite()

    def test_model_table_adds_columns_and_memoises(self, suite):
        table = suite.model_table("small")
        for column in ("model_instructions", "model_l1_misses", "model_combined"):
            assert column in table.columns
        assert suite.model_table("small") is table
        assert len(table) == len(suite.small_table())
        with pytest.raises(ValueError):
            suite.model_table("medium")

    def test_model_columns_match_scalar_models(self, suite):
        from repro.models.cache_misses import CacheMissModel
        from repro.models.instruction_count import InstructionCountModel

        table = suite.model_table("small")
        instruction_model = InstructionCountModel(
            suite.machine.config.instruction_model
        )
        miss_model = CacheMissModel.from_machine_config(
            suite.machine.config, level="l1"
        )
        for index, plan in enumerate(table.plans[:10]):
            assert table.column("model_instructions")[index] == float(
                instruction_model.count(plan)
            )
            assert table.column("model_l1_misses")[index] == float(
                miss_model.misses(plan)
            )

    def test_histograms_accept_model_metrics(self, suite):
        figure = suite.figure("figure4", metrics=("instructions", "model_instructions"))
        assert set(figure.metric_names()) == {"instructions", "model_instructions"}
        figure5 = suite.figure("figure5", metrics=("cycles", "model_combined"))
        assert "model_combined" in figure5.metric_names()

    def test_default_figures_unchanged_by_model_support(self, suite):
        # Default metric sets stay the measured ones (no model columns leak).
        assert set(suite.figure("figure4").metric_names()) == set(SMALL_SIZE_METRICS)
        assert set(suite.figure("figure5").metric_names()) == set(LARGE_SIZE_METRICS)

    def test_scatter_accepts_model_metric_with_reference_points(self, suite):
        from repro.models.instruction_count import InstructionCountModel

        scatter = suite.figure("figure6", x_metric="model_instructions")
        assert scatter.x_label == "model_instructions"
        references = suite.canonical_table(suite.scale.small_size)
        instruction_model = InstructionCountModel(
            suite.machine.config.instruction_model
        )
        for index, name in enumerate(REFERENCE_NAMES):
            x_value, y_value = scatter.references[name]
            assert x_value == float(instruction_model.count(references.plans[index]))
            assert y_value == float(references.cycles[index])

    def test_scatter_measured_path_unchanged(self, suite):
        measured = suite.figure("figure6")
        assert measured.x_label == "instructions"
        references = suite.canonical_table(suite.scale.small_size)
        for index, name in enumerate(REFERENCE_NAMES):
            assert measured.references[name][0] == float(references.instructions[index])

    def test_pruning_accepts_model_metrics(self, suite):
        measured = suite.figure("figure10")
        model = suite.figure("figure10", model_metric="model_instructions")
        assert measured.model_label == "instructions"
        assert model.model_label == "model_instructions"
        assert set(model.safe_thresholds) == set(measured.safe_thresholds)
        combined = suite.figure("figure11", model_metric="model_combined")
        assert combined.model_label == "model_combined"

    def test_scatter_explicit_reference_points_override(self, large_table, machine):
        from repro.wht.canonical import iterative_plan

        measurement = machine.measure(iterative_plan(large_table.n))
        figure = scatter_figure(
            large_table,
            references={"iterative": measurement},
            reference_points={"iterative": (1.0, 2.0)},
        )
        assert figure.references["iterative"] == (1.0, 2.0)
