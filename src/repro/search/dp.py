"""Dynamic-programming search conveniences.

The underlying machinery lives in :mod:`repro.wht.dp_search`; the helpers here
run it with an engine-bound cost and adapt the outcome to the common
:class:`repro.search.result.SearchResult` shape.  The DP-best plan is the
baseline the paper's Figures 1–3 normalise against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.search.result import SearchResult
from repro.util.validation import check_positive_int
from repro.wht.dp_search import DPSearch, DPSearchResult
from repro.wht.plan import MAX_UNROLLED

if TYPE_CHECKING:  # pragma: no cover - the runtime layer imports this one
    from repro.runtime.cost_engine import EngineSurface, ObjectiveCost

__all__ = ["dp_search", "dp_best_plan"]


def dp_search(
    n: int,
    cost: "EngineSurface | ObjectiveCost",
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = 2,
    include_iterative: bool = True,
    record_candidates: bool = True,
) -> DPSearchResult:
    """Run the package's DP search up to exponent ``n``.

    ``cost`` is an engine surface or ``engine.cost(objective)``.
    """
    check_positive_int(n, "n")
    searcher = DPSearch(
        cost,
        max_leaf=max_leaf,
        max_children=max_children,
        include_iterative=include_iterative,
        record_candidates=record_candidates,
    )
    return searcher.search(n)


def dp_best_plan(
    cost: "EngineSurface | ObjectiveCost",
    n: int,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = 2,
    include_iterative: bool = True,
    record_candidates: bool = True,
) -> SearchResult:
    """The DP-best plan for ``n`` under ``cost``.

    This is the reproduction's analogue of "the best algorithm determined by
    the dynamic programming search performed by the WHT package" — with
    ``cost`` a :class:`~repro.runtime.cost_engine.CostEngine` over the
    machine, it optimises simulated cycles.
    """
    result = dp_search(
        n,
        cost,
        max_leaf=max_leaf,
        max_children=max_children,
        include_iterative=include_iterative,
        record_candidates=record_candidates,
    )
    history = [(record.plan, record.cost) for record in result.candidates_for(n)]
    return SearchResult(
        n=n,
        best_plan=result.best(n),
        best_cost=result.best_costs[n],
        evaluated=result.evaluations,
        considered=result.evaluations,
        strategy="dynamic-programming",
        history=history,
    )
