"""Model-pruned search — the paper's proposed use of its performance models.

The conclusion of the paper: because instruction counts (and, for large sizes,
the combined instruction/miss model) correlate with runtime and can be
computed from the high-level plan description, a search can discard every
candidate whose model value is large *without measuring it*, and spend its
measurement budget only on the remaining fraction.

:class:`ModelPrunedSearch` implements exactly that two-stage strategy:

1. generate candidates (RSU random sample by default, or a caller-provided
   list, or the exhaustive space for small sizes);
2. evaluate the cheap model on every candidate and keep either the best
   ``keep_fraction`` of them or all candidates below ``threshold``;
3. measure the survivors with the expensive cost and return the best.

The report records both costs' evaluation counts plus the quality of the
result relative to measuring everything, so the pruning trade-off studied in
Figures 10/11 can be quantified directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.search.result import SearchResult
from repro.util.batching import evaluate_cost_batch
from repro.util.rng import RandomState
from repro.util.validation import check_positive_int, check_probability
from repro.wht.encoding import plan_key
from repro.wht.plan import MAX_UNROLLED, Plan
from repro.wht.random_plans import RSUSampler

if TYPE_CHECKING:  # pragma: no cover - the runtime layer imports this one
    from repro.runtime.cost_engine import EngineSurface, ObjectiveCost

__all__ = ["ModelPrunedSearch", "PrunedSearchReport"]


@dataclass(frozen=True)
class PrunedSearchReport:
    """Extended result of a pruned search."""

    result: SearchResult
    #: Number of candidates scored with the cheap model.
    model_evaluations: int
    #: Number of expensive measurements actually performed: the measuring
    #: cost's ``measured`` delta, so survivors served from the engine's
    #: record cache cost nothing and are not counted.
    measured_evaluations: int
    #: Model threshold actually applied.
    threshold: float
    #: Fraction of candidates discarded by the model stage.
    pruned_fraction: float

    @property
    def measurement_savings(self) -> float:
        """Fraction of expensive measurements avoided by pruning."""
        if self.model_evaluations == 0:
            return 0.0
        return 1.0 - self.measured_evaluations / self.model_evaluations


@dataclass
class ModelPrunedSearch:
    """Two-stage search: cheap model filter, then expensive measurement.

    Exactly one of ``keep_fraction`` and ``threshold`` is used: when
    ``threshold`` is ``None`` the survivors are the best ``keep_fraction`` of
    the candidates by model value.

    Both costs are engine surfaces or ``engine.cost(objective)`` — the
    paper's strategy is ``engine.cost("model_instructions")`` (or the
    composite ``WeightedObjective.model_combined``) with ``engine`` itself
    measuring cycles.  Sharing one engine lets the measuring stage reuse
    every cached record.
    """

    model_cost: "EngineSurface | ObjectiveCost"
    measure_cost: "EngineSurface | ObjectiveCost"
    samples: int = 200
    keep_fraction: float = 0.25
    threshold: float | None = None
    max_leaf: int = MAX_UNROLLED
    max_children: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.samples, "samples")
        check_probability(self.keep_fraction, "keep_fraction")
        if self.keep_fraction == 0.0 and self.threshold is None:
            raise ValueError("keep_fraction must be positive when no threshold is given")

    # -- candidate generation ---------------------------------------------------

    def generate_candidates(self, n: int, rng: RandomState = None) -> list[Plan]:
        """Draw the default candidate set, deduplicated by plan key in draw order.

        A ``Generator`` passed as ``rng`` ends at an unspecified position
        (the sample is drawn through
        :meth:`~repro.wht.random_plans.RSUSampler.sample_many`).
        """
        sampler = RSUSampler(max_leaf=self.max_leaf, max_children=self.max_children)
        seen: set[str] = set()
        candidates: list[Plan] = []
        for plan in sampler.sample_many(n, self.samples, rng):
            key = plan_key(plan)
            if key not in seen:
                seen.add(key)
                candidates.append(plan)
        return candidates

    # -- search -----------------------------------------------------------------

    def search(
        self,
        n: int,
        rng: RandomState = None,
        candidates: Sequence[Plan] | None = None,
    ) -> PrunedSearchReport:
        """Run the two-stage search for exponent ``n``."""
        check_positive_int(n, "n")
        plans = list(candidates) if candidates is not None else self.generate_candidates(n, rng)
        if not plans:
            raise ValueError("no candidate plans to search")
        for plan in plans:
            if plan.n != n:
                raise ValueError(
                    f"candidate {plan} has exponent {plan.n}, expected {n}"
                )

        model_values = np.array(evaluate_cost_batch(self.model_cost, plans))
        if self.threshold is not None:
            threshold = float(self.threshold)
        else:
            keep = max(int(np.ceil(self.keep_fraction * len(plans))), 1)
            threshold = float(np.partition(model_values, keep - 1)[keep - 1])
        survivor_mask = model_values <= threshold
        survivors = [plan for plan, keep_it in zip(plans, survivor_mask) if keep_it]
        if not survivors:
            # A caller-provided threshold may be below every model value; fall
            # back to the single cheapest candidate so the search always
            # returns something measurable.
            best_index = int(np.argmin(model_values))
            survivors = [plans[best_index]]
            survivor_mask = np.zeros(len(plans), dtype=bool)
            survivor_mask[best_index] = True

        measured_before = self.measure_cost.measured
        values = evaluate_cost_batch(self.measure_cost, survivors)
        history = list(zip(survivors, values))
        best_plan: Plan | None = None
        best_cost = float("inf")
        for plan, value in history:
            # Explicit fold (not argmin) so a NaN cost can never be selected.
            if value < best_cost:
                best_cost = value
                best_plan = plan
        assert best_plan is not None

        result = SearchResult(
            n=n,
            best_plan=best_plan,
            best_cost=best_cost,
            evaluated=len(history),
            considered=len(plans),
            strategy="model-pruned",
            history=history,
        )
        return PrunedSearchReport(
            result=result,
            model_evaluations=len(plans),
            measured_evaluations=self.measure_cost.measured - measured_before,
            threshold=threshold,
            pruned_fraction=float(1.0 - survivor_mask.mean()),
        )
