"""Exhaustive search: evaluate every plan of a (small) size."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.search.result import SearchResult
from repro.util.batching import evaluate_cost_batch
from repro.util.validation import check_positive_int
from repro.wht.enumeration import count_plans, enumerate_plans
from repro.wht.plan import MAX_UNROLLED, Plan

if TYPE_CHECKING:  # pragma: no cover - the runtime layer imports this one
    from repro.runtime.cost_engine import EngineSurface, ObjectiveCost

__all__ = ["ExhaustiveSearch"]


@dataclass
class ExhaustiveSearch:
    """Evaluate every plan of exponent ``n``; exact but exponential.

    ``limit`` guards against accidentally launching an enumeration of an
    infeasibly large space (the space grows roughly like ``7^n``); exceeding it
    raises instead of silently truncating, so an "exhaustive" result can never
    be partial.

    Candidates are evaluated in rounds of ``batch_size`` plans straight off
    the enumeration stream (which is duplicate-free by construction), so the
    cost amortises work per round while only one round of plans is in flight
    beyond the recorded history.

    ``cost`` is an engine surface or ``engine.cost(objective)``.
    """

    cost: "EngineSurface | ObjectiveCost"
    max_leaf: int = MAX_UNROLLED
    limit: int = 200_000
    batch_size: int = 2048

    def __post_init__(self) -> None:
        check_positive_int(self.limit, "limit")
        check_positive_int(self.batch_size, "batch_size")

    def space_size(self, n: int) -> int:
        """Number of plans that would be evaluated for exponent ``n``."""
        return count_plans(n, max_leaf=self.max_leaf)

    def search(self, n: int) -> SearchResult:
        """Run the exhaustive search for exponent ``n``."""
        check_positive_int(n, "n")
        size = self.space_size(n)
        if size > self.limit:
            raise ValueError(
                f"exhaustive search of exponent {n} would evaluate {size} plans, "
                f"exceeding the limit of {self.limit}; use RandomSearch, "
                "ModelPrunedSearch or the DP search instead"
            )
        history: list[tuple[Plan, float]] = []
        best_plan: Plan | None = None
        best_cost = float("inf")
        stream = enumerate_plans(n, max_leaf=self.max_leaf)
        while True:
            round_plans: list[Plan] = []
            for plan in stream:
                round_plans.append(plan)
                if len(round_plans) >= self.batch_size:
                    break
            if not round_plans:
                break
            for plan, value in zip(
                round_plans, evaluate_cost_batch(self.cost, round_plans)
            ):
                history.append((plan, value))
                if value < best_cost:
                    best_cost = value
                    best_plan = plan
        assert best_plan is not None
        return SearchResult(
            n=n,
            best_plan=best_plan,
            best_cost=best_cost,
            evaluated=len(history),
            considered=len(history),
            strategy="exhaustive",
            history=history,
        )
