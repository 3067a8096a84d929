"""Figure-at-a-time use of the experiment registry, and report rendering."""

import pytest

import repro
from repro.config import ci_scale
from repro.experiments.report import (
    render_correlation_table,
    render_histogram_figure,
    render_pruning_figure,
    render_ratio_figure,
    render_scatter_figure,
    render_surface,
    render_theory_table,
)
from repro.machine.configs import tiny_machine
from repro.runtime.store import MemoryStore
from repro.suite.figures import PAPER_EXPERIMENTS
from repro.suite.spec import SpecError


@pytest.fixture(scope="module")
def session():
    return repro.session(
        machine=tiny_machine(noise_sigma=0.02),
        scale=ci_scale(),
        backend="serial",
        store=MemoryStore(),
    )


@pytest.fixture(scope="module")
def suite(session):
    return session.suite()


class TestFigureView:
    def test_view_is_memoised_and_bound_to_the_session(self, session, suite):
        assert session.suite() is suite
        assert suite.session is session
        assert suite.machine is session.machine
        assert suite.mode == "plain"

    def test_tables_are_cached(self, suite):
        assert suite.small_table() is suite.small_table()
        assert suite.large_table() is suite.large_table()
        n = suite.scale.small_size
        assert suite.canonical_table(n) is suite.canonical_table(n)

    def test_tables_flow_through_the_session(self, session, suite):
        assert suite.small_table() is session.small_table()
        assert suite.large_table() is session.large_table()

    def test_table_sizes_match_scale(self, suite):
        assert suite.small_table().n == suite.scale.small_size
        assert suite.large_table().n == suite.scale.large_size
        assert len(suite.small_table()) == suite.scale.sample_count

    def test_figures_1_to_3_share_the_sweep(self, suite):
        assert suite.figure("figure1") == suite.figure("figure2") == suite.figure("figure3")

    def test_figure4_and_5_metrics(self, suite):
        assert suite.figure("figure4").metric_names() == ("cycles", "instructions")
        assert suite.figure("figure5").metric_names() == ("cycles", "instructions", "l1_misses")

    def test_figures_6_to_8_reference_points(self, suite):
        fig6 = suite.figure("figure6")
        assert {"iterative", "left", "right", "best"} <= set(fig6.references)
        assert suite.figure("figure8").x_label == "l1_misses"

    def test_figure9_surface(self, suite):
        assert suite.figure("figure9").rho.shape == (21, 21)

    def test_figure10_and_11(self, suite):
        assert suite.figure("figure10").model_label == "instructions"
        assert "Instructions" in suite.figure("figure11").model_label

    def test_correlation_summary_ordering(self, suite):
        table = suite.figure("correlations")
        assert table.rho_large_combined >= table.rho_large_misses - 1e-9

    def test_run_all_keys(self, session):
        assert set(session.run_all()) == set(PAPER_EXPERIMENTS)

    def test_search_kind_matches_session_search(self, session, suite):
        result = suite.figure("search", n=5)
        direct = session.search(5, objective="cycles")
        assert (str(result.best_plan), result.best_cost) == (
            str(direct.best_plan),
            direct.best_cost,
        )

    def test_unknown_kind_is_rejected(self, suite):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            suite.figure("figure12")

    def test_options_are_validated_like_spec_options(self, suite):
        with pytest.raises(SpecError, match="unknown option"):
            suite.figure("figure1", x_metric="cycles")
        with pytest.raises(SpecError, match="metrics"):
            suite.figure("figure4", metrics=["not_a_metric"])


class TestReportRendering:
    def test_render_report_mentions_every_figure(self, session):
        text = session.render_report()
        for i in range(1, 12):
            assert f"Figure {i}" in text
        assert "correlation" in text.lower()

    def test_write_experiments_report(self, session, tmp_path):
        path = tmp_path / "report.txt"
        text = session.write_experiments_report(str(path))
        assert path.exists()
        assert path.read_text().strip() == text.strip()

    def test_individual_renderers(self, suite):
        sweep = suite.figure("figure1")
        assert "iterative/best" in render_ratio_figure(sweep, "cycles", "Figure 1")
        assert "#" in render_histogram_figure(suite.figure("figure4"))
        assert "rho" in render_scatter_figure(suite.figure("figure6"), "Figure 6")
        assert "alpha" in render_surface(suite.figure("figure9"), "Figure 9")
        assert "top 5%" in render_pruning_figure(suite.figure("figure10"))
        assert "reproduced" in render_correlation_table(suite.figure("correlations"))
        assert "plans" in render_theory_table(suite.figure("theory", max_size=6))
