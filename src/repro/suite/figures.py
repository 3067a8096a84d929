"""The spec-addressable experiment kinds and their builders.

Every experiment kind a :class:`~repro.suite.spec.SuiteSpec` may declare is
registered here: its shared baselines (the runner materialises the union of
the baselines of all non-skipped units before building anything), its
allowed options, an options validator (so spec validation can reject a bad
experiment with a path-prefixed message), and the builder itself.

A builder receives the unit's :class:`~repro.suite.context.SuiteContext`
and options and returns ``(figure, tables, artifact)``:

* ``figure`` — the rich in-process object (a
  :class:`~repro.experiments.canonical.CanonicalSweep` for Figures 1–3, a
  histogram, scatter, surface, pruning or summary-table object otherwise),
* ``tables`` — named :class:`~repro.suite.results.SuiteTable`s for the
  CSV/JSONL sinks,
* ``artifact`` — a JSON dict rich enough to re-check every figure's
  paper-level claims without the Python objects.

This registry is the package's only figure driver: the suite runner calls
:func:`build_experiment` per unit, and figure-at-a-time use
(:meth:`SuiteContext.figure <repro.suite.context.SuiteContext.figure>`,
``Session.run_all``) calls the same builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.pearson import pearson_correlation
from repro.config import ExperimentScale
from repro.experiments.alphabeta import alphabeta_surface
from repro.experiments.canonical import CANONICAL_NAMES, SWEEP_METRICS, CanonicalSweep
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
from repro.runtime.metrics import metric_spec
from repro.suite.context import REFERENCE_NAMES, SuiteContext
from repro.suite.results import SuiteTable, jsonable
from repro.suite.spec import ExperimentSpec, SpecError

__all__ = [
    "PAPER_EXPERIMENTS",
    "experiment_kinds",
    "kind_baselines",
    "validate_options",
    "build_experiment",
]


# -- Figures 1-3: the canonical sweep ---------------------------------------------


def _canonical_sweep(ctx: SuiteContext) -> CanonicalSweep:
    sizes = ctx.sweep_sizes()
    values: dict[str, dict[str, list[float]]] = {
        name: {metric: [] for metric in SWEEP_METRICS} for name in REFERENCE_NAMES
    }
    for n in sizes:
        table = ctx.canonical_table(n)
        for index, name in enumerate(REFERENCE_NAMES):
            for metric in SWEEP_METRICS:
                values[name][metric].append(float(table.column(metric)[index]))
    return CanonicalSweep(
        sizes=sizes,
        values={
            name: {metric: tuple(series) for metric, series in metrics.items()}
            for name, metrics in values.items()
        },
        best_plans={n: ctx.best_plan(n) for n in sizes},
    )


def _ratio_tables(
    sweep: CanonicalSweep, metric: str, log10: bool = False
) -> dict[str, SuiteTable]:
    series = sweep.log10_ratios(metric) if log10 else sweep.ratios(metric)
    headers = ["n"] + [f"{name}_over_best" for name in CANONICAL_NAMES]
    rows = [
        [n] + [series[name][i] for name in CANONICAL_NAMES]
        for i, n in enumerate(sweep.sizes)
    ]
    return {"ratios": SuiteTable.build(headers, rows)}


def _build_ratio_figure(ctx: SuiteContext, metric: str, log10: bool) -> tuple:
    sweep = _canonical_sweep(ctx)
    config = ctx.machine.config
    artifact: dict[str, Any] = {
        "sizes": list(sweep.sizes),
        "metric": metric,
        "log10": log10,
        "ratios": sweep.log10_ratios(metric) if log10 else sweep.ratios(metric),
        "values": {name: sweep.values[name][metric] for name in REFERENCE_NAMES},
        "crossover": sweep.crossover_size("right"),
        "l1_boundary": config.l1_capacity_exponent(),
        "l2_boundary": config.l2_capacity_exponent(),
        "best_plans": {str(n): str(plan) for n, plan in sweep.best_plans.items()},
    }
    return sweep, _ratio_tables(sweep, metric, log10=log10), artifact


def _build_figure1(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_ratio_figure(ctx, "cycles", log10=False)


def _build_figure2(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_ratio_figure(ctx, "instructions", log10=False)


def _build_figure3(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_ratio_figure(ctx, "l1_misses", log10=True)


# -- Figures 4-5: histograms -----------------------------------------------------


def _summary_payload(summary) -> dict[str, Any]:
    payload = dict(summary.as_dict())
    payload["iqr"] = summary.iqr
    payload["coefficient_of_variation"] = summary.coefficient_of_variation
    return payload


def _build_histograms(ctx: SuiteContext, which: str, metrics: tuple[str, ...]) -> tuple:
    table = ctx.figure_table(which, metrics)
    figure = histogram_figure(table, metrics=metrics)
    artifact = {
        "n": figure.n,
        "which": which,
        "sample_count": figure.sample_count,
        "metrics": list(figure.metric_names()),
        "summaries": {m: _summary_payload(s) for m, s in figure.summaries.items()},
        "outliers_removed": dict(figure.outliers_removed),
        "histograms": {
            m: {"edges": h.edges, "counts": h.counts}
            for m, h in figure.histograms.items()
        },
    }
    summary_headers = [
        "metric", "count", "mean", "std", "min", "q1", "median", "q3", "max",
        "skewness", "excess_kurtosis", "iqr", "coefficient_of_variation",
        "outliers_removed",
    ]
    rows = []
    for metric in figure.metric_names():
        payload = _summary_payload(figure.summaries[metric])
        rows.append(
            [metric] + [payload[h] for h in summary_headers[1:-1]]
            + [figure.outliers_removed[metric]]
        )
    tables = {"summaries": SuiteTable.build(summary_headers, rows)}
    return figure, tables, jsonable(artifact)


def _build_figure4(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    metrics = tuple(options.get("metrics", SMALL_SIZE_METRICS))
    return _build_histograms(ctx, "small", metrics)


def _build_figure5(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    metrics = tuple(options.get("metrics", LARGE_SIZE_METRICS))
    return _build_histograms(ctx, "large", metrics)


# -- Figures 6-8: scatter plots --------------------------------------------------


def _build_scatter(
    ctx: SuiteContext, which: str, x_metric: str, y_metric: str = "cycles"
) -> tuple:
    n = ctx.scale.small_size if which == "small" else ctx.scale.large_size
    metrics = (x_metric, y_metric)
    table = ctx.figure_table(which, metrics)
    points = {
        name: (values[0], values[1])
        for name, values in ctx.reference_points(n, metrics).items()
    }
    data = scatter_figure(
        table, x_metric=x_metric, y_metric=y_metric, reference_points=points
    )
    artifact = {
        "n": n,
        "which": which,
        "x_metric": x_metric,
        "y_metric": y_metric,
        "count": data.count,
        "correlation": data.correlation,
        "references": {name: list(point) for name, point in data.references.items()},
        "outside_range": {
            name: data.reference_outside_range(name) for name in data.references
        },
        "y_p95": float(np.percentile(data.y, 95.0)),
    }
    tables = {
        "points": SuiteTable.build([x_metric, y_metric], list(zip(data.x, data.y))),
        "references": SuiteTable.build(
            ["name", x_metric, y_metric, "outside_range"],
            [
                [name, point[0], point[1], data.reference_outside_range(name)]
                for name, point in data.references.items()
            ],
        ),
    }
    return data, tables, jsonable(artifact)


def _build_figure6(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_scatter(ctx, "small", options.get("x_metric", "instructions"))


def _build_figure7(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_scatter(ctx, "large", options.get("x_metric", "instructions"))


def _build_figure8(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    return _build_scatter(ctx, "large", options.get("x_metric", "l1_misses"))


# -- Figure 9: the (alpha, beta) correlation surface -----------------------------


def _build_figure9(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    table = ctx.large_table()
    surface = alphabeta_surface(table, miss_column=options.get("miss_column", "l1_misses"))
    alpha, beta, rho = surface.best
    artifact = {
        "n": table.n,
        "alphas": surface.alphas,
        "betas": surface.betas,
        "rho": surface.rho,
        "best": {"alpha": alpha, "beta": beta, "rho": rho},
        "rho_instructions": pearson_correlation(table.instructions, table.cycles),
        "rho_misses": pearson_correlation(table.l1_misses, table.cycles),
    }
    tables = {
        "surface": SuiteTable.build(["alpha", "beta", "rho"], surface.as_rows()),
        "best": SuiteTable.build(["alpha", "beta", "rho"], [[alpha, beta, rho]]),
    }
    return surface, tables, jsonable(artifact)


# -- Figures 10-11: pruning curves -----------------------------------------------


def _pruning_payload(figure) -> tuple[dict[str, Any], dict[str, SuiteTable]]:
    artifact = {
        "n": figure.n,
        "model_label": figure.model_label,
        "safe_thresholds": {
            f"{p:g}": {"threshold": threshold, "discarded": discarded}
            for p, (threshold, discarded) in sorted(figure.safe_thresholds.items())
        },
        "curves": [
            {
                "percentile": curve.percentile,
                "limit": curve.limit,
                "final_cumulative": float(curve.cumulative[-1]),
            }
            for curve in figure.curves
        ],
    }
    rows = []
    for curve in figure.curves:
        for i in range(curve.thresholds.shape[0]):
            rows.append(
                [
                    curve.percentile,
                    float(curve.thresholds[i]),
                    float(curve.cumulative[i]),
                    float(curve.captured_top[i]),
                ]
            )
    tables = {
        "curves": SuiteTable.build(
            ["percentile", "threshold", "cumulative", "captured_top"], rows
        ),
        "safe_thresholds": SuiteTable.build(
            ["percentile", "threshold", "discarded"],
            [
                [p, threshold, discarded]
                for p, (threshold, discarded) in sorted(figure.safe_thresholds.items())
            ],
        ),
    }
    return artifact, tables


def _build_figure10(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    metric = options.get("model_metric", "instructions")
    table = ctx.figure_table("small", (metric,))
    figure = pruning_figure(table, model_values=table.column(metric), model_label=metric)
    artifact, tables = _pruning_payload(figure)
    artifact["model_metric"] = metric
    artifact["max_model_value"] = float(np.max(table.column(metric)))
    return figure, tables, jsonable(artifact)


def _build_figure11(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    metric = options.get("model_metric")
    table = ctx.large_table()
    if metric is not None:
        scored = ctx.figure_table("large", (metric,))
        figure = pruning_figure(
            scored, model_values=scored.column(metric), model_label=metric
        )
        artifact, tables = _pruning_payload(figure)
        artifact["model_metric"] = metric
    else:
        alpha, beta, _ = alphabeta_surface(table).best
        figure = pruning_figure(table, combined=CombinedModel(alpha=alpha, beta=beta))
        artifact, tables = _pruning_payload(figure)
        artifact["alpha"] = alpha
        artifact["beta"] = beta
    instruction_only = pruning_figure(table, model_label="instructions")
    artifact["instructions_baseline"] = {
        f"{p:g}": {"threshold": threshold, "discarded": discarded}
        for p, (threshold, discarded) in sorted(instruction_only.safe_thresholds.items())
    }
    return figure, tables, jsonable(artifact)


# -- summary tables --------------------------------------------------------------


def _build_correlations(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    table = correlation_table(ctx.small_table(), ctx.large_table())
    artifact = {
        "small_n": table.small_n,
        "large_n": table.large_n,
        "rho_small_instructions": table.rho_small_instructions,
        "rho_large_instructions": table.rho_large_instructions,
        "rho_large_misses": table.rho_large_misses,
        "rho_large_combined": table.rho_large_combined,
        "best_alpha": table.best_alpha,
        "best_beta": table.best_beta,
        "satisfies_paper_ordering": table.satisfies_paper_ordering(),
    }
    tables = {
        "correlations": SuiteTable.build(["quantity", "value"], table.as_rows()),
    }
    return table, tables, jsonable(artifact)


def _build_theory(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    top = options.get("max_size")
    if top is None:
        top = min(ctx.scale.large_size, 14)
    table = theory_table(range(1, int(top) + 1))
    artifact = {"max_size": int(top), "rows": [dict(row) for row in table.rows]}
    tables = {"theory": SuiteTable.build(table.headers, table.as_rows())}
    return table, tables, jsonable(artifact)


# -- searches --------------------------------------------------------------------


def _build_search(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    from repro.suite.sweep import parse_objective

    n = int(options["n"])
    strategy = options.get("strategy", "dp")
    objective = parse_objective(options.get("objective", "cycles"))
    result = ctx.session.search(n, strategy=strategy, objective=objective)
    artifact = {
        "n": result.n,
        "strategy": result.strategy,
        "objective": objective.describe(),
        "best_plan": str(result.best_plan),
        "best_cost": result.best_cost,
        "evaluated": result.evaluated,
        "considered": result.considered,
    }
    tables = {
        "result": SuiteTable.build(
            ["n", "strategy", "objective", "best_plan", "best_cost", "evaluated"],
            [[result.n, result.strategy, objective.describe(), str(result.best_plan),
              result.best_cost, result.evaluated]],
        )
    }
    return result, tables, jsonable(artifact)


# -- the registry ----------------------------------------------------------------


def _validate_metrics_option(options: Mapping[str, Any], path: str) -> None:
    metrics = options.get("metrics")
    if metrics is None:
        return
    if not isinstance(metrics, (list, tuple)) or not metrics:
        raise SpecError(f"{path}.options.metrics: must be a non-empty list of metric names")
    for metric in metrics:
        try:
            metric_spec(metric)
        except KeyError as exc:
            raise SpecError(f"{path}.options.metrics: {exc.args[0]}") from None


def _validate_metric_option(name: str):
    def check(options: Mapping[str, Any], path: str, scale: ExperimentScale) -> None:
        value = options.get(name)
        if value is None:
            return
        try:
            metric_spec(value)
        except KeyError as exc:
            raise SpecError(f"{path}.options.{name}: {exc.args[0]}") from None

    return check


def _validate_histogram(options: Mapping[str, Any], path: str, scale: ExperimentScale) -> None:
    _validate_metrics_option(options, path)


def _validate_theory(options: Mapping[str, Any], path: str, scale: ExperimentScale) -> None:
    top = options.get("max_size")
    if top is not None and (not isinstance(top, int) or top < 1):
        raise SpecError(f"{path}.options.max_size: must be a positive integer")


def _validate_search(options: Mapping[str, Any], path: str, scale: ExperimentScale) -> None:
    from repro.suite.sweep import parse_objective

    n = options.get("n")
    if not isinstance(n, int) or n < 1:
        raise SpecError(f"{path}.options.n: required and must be a positive integer")
    strategy = options.get("strategy", "dp")
    if strategy not in ("dp", "random", "exhaustive"):
        raise SpecError(
            f"{path}.options.strategy: unknown strategy {strategy!r}; "
            "available: dp, random, exhaustive"
        )
    try:
        parse_objective(options.get("objective", "cycles"))
    except SpecError as exc:
        raise SpecError(f"{path}.options.objective: {exc}") from None


def _validate_sweep(options: Mapping[str, Any], path: str, scale: ExperimentScale) -> None:
    from repro.suite.sweep import validate_sweep_options

    validate_sweep_options(options, path, scale)


@dataclass(frozen=True)
class KindDef:
    """One registered experiment kind."""

    baselines: tuple[str, ...]
    allowed_options: frozenset[str]
    builder: Callable[[SuiteContext, Mapping[str, Any]], tuple]
    validator: Callable[[Mapping[str, Any], str, ExperimentScale], None] | None = None


def _build_sweep_experiment(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    from repro.suite.sweep import build_objective_sweep

    return build_objective_sweep(ctx, options)


KIND_REGISTRY: dict[str, KindDef] = {
    "figure1": KindDef(("canonical",), frozenset(), _build_figure1),
    "figure2": KindDef(("canonical",), frozenset(), _build_figure2),
    "figure3": KindDef(("canonical",), frozenset(), _build_figure3),
    "figure4": KindDef(("small",), frozenset({"metrics"}), _build_figure4, _validate_histogram),
    "figure5": KindDef(("large",), frozenset({"metrics"}), _build_figure5, _validate_histogram),
    "figure6": KindDef(
        ("small", "canonical"), frozenset({"x_metric"}), _build_figure6,
        _validate_metric_option("x_metric"),
    ),
    "figure7": KindDef(
        ("large", "canonical"), frozenset({"x_metric"}), _build_figure7,
        _validate_metric_option("x_metric"),
    ),
    "figure8": KindDef(
        ("large", "canonical"), frozenset({"x_metric"}), _build_figure8,
        _validate_metric_option("x_metric"),
    ),
    "figure9": KindDef(("large",), frozenset({"miss_column"}), _build_figure9),
    "figure10": KindDef(
        ("small",), frozenset({"model_metric"}), _build_figure10,
        _validate_metric_option("model_metric"),
    ),
    "figure11": KindDef(
        ("large",), frozenset({"model_metric"}), _build_figure11,
        _validate_metric_option("model_metric"),
    ),
    "correlations": KindDef(("small", "large"), frozenset(), _build_correlations),
    "theory": KindDef((), frozenset({"max_size"}), _build_theory, _validate_theory),
    "search": KindDef(
        (), frozenset({"n", "strategy", "objective"}), _build_search, _validate_search
    ),
    "objective_sweep": KindDef(
        (),
        frozenset({"objectives", "sizes", "count"}),
        _build_sweep_experiment,
        _validate_sweep,
    ),
}


#: The paper's evaluation: every figure plus the two summary tables, in
#: report order (``Session.run_all``).
PAPER_EXPERIMENTS = tuple(f"figure{i}" for i in range(1, 12)) + ("correlations", "theory")


def experiment_kinds() -> tuple[str, ...]:
    """All registered experiment kind names."""
    return tuple(KIND_REGISTRY)


def kind_baselines(kind: str) -> tuple[str, ...]:
    """The shared baselines one kind depends on."""
    return KIND_REGISTRY[kind].baselines


def validate_options(
    experiment: ExperimentSpec, path: str, scale: ExperimentScale
) -> None:
    """Validate one experiment's options against its kind's definition."""
    definition = KIND_REGISTRY[experiment.kind]
    unknown = set(experiment.options) - set(definition.allowed_options)
    if unknown:
        allowed = sorted(definition.allowed_options) or "(none)"
        raise SpecError(
            f"{path}.options: unknown option(s) {sorted(unknown)} for kind "
            f"{experiment.kind!r}; allowed: {allowed}"
        )
    if definition.validator is not None:
        definition.validator(experiment.options, path, scale)


def build_experiment(ctx: SuiteContext, experiment: ExperimentSpec) -> tuple:
    """Run one experiment's builder; returns ``(figure, tables, artifact)``."""
    return KIND_REGISTRY[experiment.kind].builder(ctx, experiment.options)
