"""Plain-text rendering of experiment results.

Every experiment kind returns a structured figure object; the functions here
turn those objects into the aligned text blocks of ``Session.render_report``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.analysis.scatter import ScatterData
from repro.experiments import paper_values
from repro.experiments.canonical import CANONICAL_NAMES, CanonicalSweep
from repro.experiments.correlation_table import CorrelationTable
from repro.experiments.histograms import HistogramFigure
from repro.experiments.pruning import PruningFigure
from repro.experiments.theory_table import TheoryTable
from repro.models.combined import CorrelationSurface
from repro.util.tables import format_series, format_table

__all__ = [
    "render_ratio_figure",
    "render_histogram_figure",
    "render_scatter_figure",
    "render_surface",
    "render_pruning_figure",
    "render_correlation_table",
    "render_theory_table",
    "render_report",
]


def render_ratio_figure(
    sweep: CanonicalSweep,
    metric: str,
    title: str,
    log10: bool = False,
) -> str:
    """Figures 1–3: one row per size, one column per canonical algorithm."""
    series = sweep.log10_ratios(metric) if log10 else sweep.ratios(metric)
    columns = {f"{name}/best": series[name] for name in CANONICAL_NAMES}
    rendered = format_series(list(sweep.sizes), columns, x_label="n", title=title)
    crossover = sweep.crossover_size("right")
    footer = (
        f"\nfirst size where right recursive beats iterative (cycles): "
        f"{'n=' + str(crossover) if crossover is not None else 'not within sweep'}"
    )
    return rendered + footer


def render_histogram_figure(figure: HistogramFigure, width: int = 36) -> str:
    """Figures 4–5: stacked ASCII histograms."""
    return figure.render(width=width)


def render_scatter_figure(data: ScatterData, title: str) -> str:
    """Figures 6–8: correlation plus reference-point table."""
    lines = [
        title,
        f"samples: {data.count}",
        f"Pearson correlation rho({data.x_label}, {data.y_label}) = {data.correlation:.3f}",
    ]
    if data.references:
        rows = []
        for name, (x, y) in data.references.items():
            note = " (outside sample range)" if data.reference_outside_range(name) else ""
            rows.append([name, x, y, note])
        lines.append(
            format_table([data.x_label, data.y_label, "", ""], [[r[1], r[2], r[0], r[3]] for r in rows])
        )
    return "\n".join(lines)


def render_surface(surface: CorrelationSurface, title: str) -> str:
    """Figure 9: the correlation surface maximum and a coarse grid view."""
    alpha, beta, rho = surface.best
    lines = [
        title,
        f"maximum rho = {rho:.3f} at alpha = {alpha:.2f}, beta = {beta:.2f}",
        "",
        "rho at selected grid points (rows alpha, columns beta):",
    ]
    alpha_idx = [i for i in range(0, surface.alphas.shape[0], max(1, surface.alphas.shape[0] // 5))]
    beta_idx = [j for j in range(0, surface.betas.shape[0], max(1, surface.betas.shape[0] // 5))]
    headers = ["alpha\\beta"] + [f"{surface.betas[j]:.2f}" for j in beta_idx]
    rows = []
    for i in alpha_idx:
        row = [f"{surface.alphas[i]:.2f}"]
        for j in beta_idx:
            value = surface.rho[i, j]
            row.append("nan" if not np.isfinite(value) else f"{value:.3f}")
        rows.append(row)
    lines.append(format_table(headers, rows))
    return "\n".join(lines)


def render_pruning_figure(figure: PruningFigure, points: int = 8) -> str:
    """Figures 10–11: sampled curve values plus the safe thresholds."""
    lines = [figure.describe(), ""]
    for curve in figure.curves:
        total = curve.thresholds.shape[0]
        idx = np.unique(np.linspace(0, total - 1, num=min(points, total)).astype(int))
        rows = [
            [float(curve.thresholds[i]), float(curve.cumulative[i]), float(curve.captured_top[i])]
            for i in idx
        ]
        lines.append(
            format_table(
                [figure.model_label, "P(<=t, outside top p%)", "fraction of top p% captured"],
                rows,
                title=f"percentile p = {curve.percentile:g}% (limit {curve.limit:.2f})",
            )
        )
        lines.append("")
    return "\n".join(lines).rstrip()


def render_correlation_table(table: CorrelationTable, paper: Mapping[str, float] | None = None) -> str:
    """Section 4 headline numbers, optionally alongside the paper's values."""
    headers = ["quantity", "reproduced"]
    if paper:
        headers.append("paper")
    rows = []
    paper_keys = [
        "rho_small_instructions",
        "rho_large_instructions",
        "rho_large_misses",
        "rho_large_combined",
    ]
    for (description, value), key in zip(table.as_rows(), paper_keys):
        row = [description, f"{value:.3f}"]
        if paper:
            row.append(f"{paper.get(key, float('nan')):.2f}")
        rows.append(row)
    ordering = "holds" if table.satisfies_paper_ordering() else "DOES NOT hold"
    return (
        format_table(headers, rows, title="Headline correlation coefficients")
        + f"\npaper's qualitative ordering {ordering}"
    )


def render_theory_table(table: TheoryTable) -> str:
    """Algorithm-space size and instruction-count extremes."""
    return format_table(table.headers, table.as_rows(), title="WHT algorithm space")


def render_report(
    results: Mapping[str, Any], machine_description: str, scale_description: str
) -> str:
    """Human-readable report covering every figure.

    ``results`` maps each kind of ``repro.suite.figures.PAPER_EXPERIMENTS``
    to its figure object, as ``Session.run_all`` returns them.
    """
    sections = [
        f"Machine: {machine_description}",
        f"Scale: {scale_description}",
        "",
        render_ratio_figure(
            results["figure1"], "cycles", "Figure 1: cycle-count ratio canonical/best"
        ),
        "",
        render_ratio_figure(
            results["figure2"],
            "instructions",
            "Figure 2: instruction-count ratio canonical/best",
        ),
        "",
        render_ratio_figure(
            results["figure3"],
            "l1_misses",
            "Figure 3: log10 cache-miss ratio canonical/best",
            log10=True,
        ),
        "",
        "Figure 4: histograms at the small size",
        render_histogram_figure(results["figure4"]),
        "",
        "Figure 5: histograms at the large size",
        render_histogram_figure(results["figure5"]),
        "",
        render_scatter_figure(results["figure6"], "Figure 6: instructions vs cycles (small size)"),
        "",
        render_scatter_figure(results["figure7"], "Figure 7: instructions vs cycles (large size)"),
        "",
        render_scatter_figure(results["figure8"], "Figure 8: cache misses vs cycles (large size)"),
        "",
        render_surface(
            results["figure9"], "Figure 9: correlation of cycles with alpha*I + beta*M"
        ),
        "",
        "Figure 10: pruning by instruction count (small size)",
        render_pruning_figure(results["figure10"]),
        "",
        "Figure 11: pruning by the combined model (large size)",
        render_pruning_figure(results["figure11"]),
        "",
        render_correlation_table(
            results["correlations"],
            paper={
                "rho_small_instructions": paper_values.PAPER_RHO_SMALL_INSTRUCTIONS,
                "rho_large_instructions": paper_values.PAPER_RHO_LARGE_INSTRUCTIONS,
                "rho_large_misses": paper_values.PAPER_RHO_LARGE_MISSES,
                "rho_large_combined": paper_values.PAPER_RHO_LARGE_COMBINED,
            },
        ),
        "",
        render_theory_table(results["theory"]),
    ]
    return "\n".join(sections)
