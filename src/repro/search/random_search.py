"""Plain random search: sample plans, evaluate each, keep the best."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.search.result import SearchResult
from repro.util.batching import evaluate_cost_batch
from repro.util.rng import RandomState
from repro.util.validation import check_positive_int
from repro.wht.encoding import plan_key
from repro.wht.plan import MAX_UNROLLED, Plan
from repro.wht.random_plans import RSUSampler

if TYPE_CHECKING:  # pragma: no cover - the runtime layer imports this one
    from repro.runtime.cost_engine import EngineSurface, ObjectiveCost

__all__ = ["RandomSearch"]


@dataclass
class RandomSearch:
    """Evaluate ``samples`` RSU-random plans and return the cheapest.

    Duplicate plans (the RSU distribution frequently re-draws common shapes at
    small sizes) are evaluated only once; the duplicate draws still count
    toward ``considered`` so search budgets are comparable across strategies.

    ``cost`` is an engine surface or ``engine.cost(objective)``.
    """

    cost: "EngineSurface | ObjectiveCost"
    samples: int = 100
    max_leaf: int = MAX_UNROLLED
    max_children: int | None = None
    dedupe: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.samples, "samples")

    def search(self, n: int, rng: RandomState = None) -> SearchResult:
        """Run the search for exponent ``n``.

        Sampling and evaluation are two phases: the full sample is drawn and
        deduplicated by plan key first, then the surviving candidates are
        evaluated as one batch (vectorised models, backend fan-out, the
        engine's record cache).  A ``Generator`` passed as ``rng`` ends at an
        unspecified position (the sample is drawn through
        :meth:`~repro.wht.random_plans.RSUSampler.sample_many`).
        """
        check_positive_int(n, "n")
        sampler = RSUSampler(max_leaf=self.max_leaf, max_children=self.max_children)
        seen: set[str] = set()
        plans: list[Plan] = []
        for plan in sampler.sample_many(n, self.samples, rng):
            if self.dedupe:
                key = plan_key(plan)
                if key in seen:
                    continue
                seen.add(key)
            plans.append(plan)
        values = evaluate_cost_batch(self.cost, plans)
        history = list(zip(plans, values))
        best_plan: Plan | None = None
        best_cost = float("inf")
        for plan, value in history:
            if value < best_cost:
                best_cost = value
                best_plan = plan
        assert best_plan is not None  # samples >= 1 guarantees at least one evaluation
        return SearchResult(
            n=n,
            best_plan=best_plan,
            best_cost=best_cost,
            evaluated=len(history),
            considered=self.samples,
            strategy="random",
            history=history,
        )
