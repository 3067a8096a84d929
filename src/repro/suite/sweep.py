"""The objective-sweep experiment: rank disagreement over one record cache.

The paper's model-comparison story — "does a cheaper objective rank plans
the same way measured cycles do?" — recast as a first-class experiment.
For every requested size, one RSU plan population is drawn (the same
deterministic draw the campaigns use), the union of all objectives' metrics
is fetched with **one** :meth:`CostEngine.records` call, and every
objective is then evaluated purely from those records:

* the *first* objective's counter metrics cost one measurement per distinct
  plan (all counters of a plan populate together);
* every further objective — including α·I+β·M composites and analytic
  ``model_*`` metrics — costs **zero extra measurements**;
* on a warm store, even the first objective costs nothing: the records
  replay from the append-log cache.

The report is two sink-writable tables: per-size *best-plan ranks* (each
objective's winner and where that plan ranks under every other objective)
and the pairwise *disagreement* table (Spearman's rho and Kendall's tau-b
between the objectives' value vectors over the shared population).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.analysis.rank import kendall_tau, rank_values, spearman_correlation
from repro.config import ExperimentScale
from repro.runtime.campaigns import sample_units
from repro.runtime.objectives import Objective, WeightedObjective, resolve_objective
from repro.suite.context import SuiteContext
from repro.suite.results import SuiteTable, jsonable
from repro.suite.spec import SpecError
from repro.wht.encoding import plan_key

__all__ = [
    "DEFAULT_OBJECTIVES",
    "ObjectiveSweepResult",
    "parse_objective",
    "validate_sweep_options",
    "build_objective_sweep",
]

#: The paper's model-comparison set: measured cycles (ground truth), the two
#: single-metric models, and the default combined model.
DEFAULT_OBJECTIVES: tuple[Any, ...] = (
    "cycles",
    "instructions",
    "l1_misses",
    {"alpha": 1.0, "beta": 0.05},
)


def parse_objective(entry: Any) -> Objective:
    """An :class:`Objective` from its JSON spec form.

    Accepted forms: a metric name (``"cycles"``), ``{"alpha": a, "beta": b}``
    (the paper's composite ``a*I + b*M``), ``{"weights": {metric: w, ...}}``
    (an arbitrary linear combination), or a ready :class:`Objective`.
    """
    if isinstance(entry, Objective):
        return entry
    if isinstance(entry, str):
        try:
            return resolve_objective(entry)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    if isinstance(entry, Mapping):
        entry = dict(entry)
        if set(entry) == {"alpha", "beta"}:
            try:
                return WeightedObjective.combined(
                    alpha=float(entry["alpha"]), beta=float(entry["beta"])
                )
            except (TypeError, ValueError) as exc:
                raise SpecError(f"alpha/beta must be numbers: {exc}") from None
        if set(entry) == {"weights"}:
            weights = entry["weights"]
            if not isinstance(weights, Mapping) or not weights:
                raise SpecError("'weights' must be a non-empty {metric: weight} object")
            try:
                return WeightedObjective(
                    {str(name): float(weight) for name, weight in weights.items()}
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"invalid weights: {exc}") from None
        raise SpecError(
            f"objective object must have keys {{'alpha', 'beta'}} or "
            f"{{'weights'}}, got {sorted(entry)}"
        )
    raise SpecError(
        f"expected a metric name or an objective object, got {type(entry).__name__}"
    )


def _sweep_axes(
    options: Mapping[str, Any], scale: ExperimentScale
) -> tuple[list[Objective], list[int], int]:
    objectives = [parse_objective(entry) for entry in options.get("objectives", DEFAULT_OBJECTIVES)]
    sizes_option = options.get("sizes")
    if sizes_option is None:
        sizes = sorted({scale.small_size, scale.large_size})
    else:
        sizes = [int(s) for s in sizes_option]
    count = int(options.get("count", scale.sample_count))
    return objectives, sizes, count


def validate_sweep_options(
    options: Mapping[str, Any], path: str, scale: ExperimentScale
) -> None:
    """Spec-time validation of one objective_sweep experiment's options."""
    raw = options.get("objectives", DEFAULT_OBJECTIVES)
    if not isinstance(raw, (list, tuple)) or len(raw) < 2:
        raise SpecError(
            f"{path}.options.objectives: must be a list of at least two objectives"
        )
    labels = []
    for index, entry in enumerate(raw):
        try:
            labels.append(parse_objective(entry).describe())
        except SpecError as exc:
            raise SpecError(f"{path}.options.objectives[{index}]: {exc}") from None
    if len(set(labels)) != len(labels):
        dupes = sorted({label for label in labels if labels.count(label) > 1})
        raise SpecError(f"{path}.options.objectives: duplicate objectives {dupes}")
    sizes = options.get("sizes")
    if sizes is not None:
        if not isinstance(sizes, (list, tuple)) or not sizes:
            raise SpecError(f"{path}.options.sizes: must be a non-empty list of integers")
        for s in sizes:
            if not isinstance(s, int) or s < 1:
                raise SpecError(f"{path}.options.sizes: {s!r} is not a positive integer")
    count = options.get("count")
    if count is not None and (not isinstance(count, int) or count < 2):
        raise SpecError(f"{path}.options.count: must be an integer >= 2")


@dataclass(frozen=True)
class ObjectiveSweepResult:
    """In-process view of one objective sweep (the unit's ``figure``)."""

    sizes: tuple[int, ...]
    labels: tuple[str, ...]
    #: ``values[n][label]`` — the objective's value vector over the size's
    #: shared plan population (one entry per distinct plan, draw order).
    values: dict[int, dict[str, np.ndarray]]
    #: ``population[n]`` — the distinct plans, rendered in grammar form.
    population: dict[int, tuple[str, ...]]
    #: Measurements the shared records pass performed, per size.
    population_measured: dict[int, int]

    def ranks(self, n: int, label: str) -> np.ndarray:
        """Tied-average ascending ranks of one objective at one size."""
        return rank_values(self.values[n][label])

    def best_plan(self, n: int, label: str) -> str:
        """The winning plan of one objective at one size."""
        return self.population[n][int(np.argmin(self.values[n][label]))]

    def disagreement(self, n: int, label_a: str, label_b: str) -> tuple[float, float]:
        """``(spearman_rho, kendall_tau)`` between two objectives at one size."""
        a, b = self.values[n][label_a], self.values[n][label_b]
        return spearman_correlation(a, b), kendall_tau(a, b)


def build_objective_sweep(ctx: SuiteContext, options: Mapping[str, Any]) -> tuple:
    """Builder for the ``objective_sweep`` experiment kind."""
    objectives, sizes, count = _sweep_axes(options, ctx.scale)
    labels = [objective.describe() for objective in objectives]

    # Union of every objective's metrics, first-seen order: one records()
    # call per size serves every objective.
    metrics: list[str] = []
    for objective in objectives:
        for name in objective.metrics:
            if name not in metrics:
                metrics.append(name)

    engine = ctx.session.cost_engine()
    values: dict[int, dict[str, np.ndarray]] = {}
    population: dict[int, tuple[str, ...]] = {}
    population_measured: dict[int, int] = {}
    best_rows: list[list[Any]] = []
    disagreement_rows: list[list[Any]] = []

    for n in sizes:
        # The same deterministic RSU draw the campaigns use; duplicates
        # collapse (records are per distinct plan anyway).
        seen: set[str] = set()
        plans = []
        for unit in sample_units(n, count, ctx.scale.seed):
            key = plan_key(unit.plan)
            if key not in seen:
                seen.add(key)
                plans.append(unit.plan)
        measured_before = int(getattr(engine, "measured", 0))
        records = engine.records(plans, metrics)
        population_measured[n] = int(getattr(engine, "measured", 0)) - measured_before

        values[n] = {
            label: np.array(
                [objective.value(record.values) for record in records], dtype=float
            )
            for label, objective in zip(labels, objectives)
        }
        population[n] = tuple(str(plan) for plan in plans)

        rank_arrays = {label: rank_values(values[n][label]) for label in labels}
        for label in labels:
            winner = int(np.argmin(values[n][label]))
            best_rows.append(
                [n, label, population[n][winner]]
                + [float(rank_arrays[other][winner]) for other in labels]
            )
        for i, label_a in enumerate(labels):
            for label_b in labels[i + 1 :]:
                disagreement_rows.append(
                    [
                        n,
                        label_a,
                        label_b,
                        spearman_correlation(values[n][label_a], values[n][label_b]),
                        kendall_tau(values[n][label_a], values[n][label_b]),
                    ]
                )

    result = ObjectiveSweepResult(
        sizes=tuple(sizes),
        labels=tuple(labels),
        values=values,
        population=population,
        population_measured=population_measured,
    )
    tables = {
        "best_plan_ranks": SuiteTable.build(
            ["n", "objective", "best_plan"] + [f"rank_under[{label}]" for label in labels],
            best_rows,
        ),
        "disagreement": SuiteTable.build(
            ["n", "objective_a", "objective_b", "spearman_rho", "kendall_tau"],
            disagreement_rows,
        ),
    }
    artifact = {
        "sizes": sizes,
        "count": count,
        "objectives": labels,
        "metrics": metrics,
        "population_size": {str(n): len(population[n]) for n in sizes},
        "population_measured": {str(n): population_measured[n] for n in sizes},
        # Structural invariant of the sweep: objectives beyond the first are
        # evaluated from the shared records with no further engine calls.
        "extra_measurements_after_records": 0,
        "best_plan_ranks": [
            dict(zip(tables["best_plan_ranks"].headers, row))
            for row in tables["best_plan_ranks"].rows
        ],
        "disagreement": [
            dict(zip(tables["disagreement"].headers, row))
            for row in tables["disagreement"].rows
        ],
    }
    return result, tables, jsonable(artifact)
