"""Dynamic-programming search for fast WHT plans.

The WHT package finds its "best" algorithm with a bottom-up dynamic program:
for each exponent ``m`` it evaluates candidate plans whose root composition
combines the best plans already found for smaller exponents, and keeps the
cheapest.  The paper (Section 3) uses the plan found this way as the baseline
that all canonical algorithms and random samples are compared against, while
noting that DP is only a heuristic (the true cost of a sub-plan depends on the
calling context).

The search is parameterised by an arbitrary cost function so it can run
against simulated cycle counts, analytic models, wall-clock time or any
combination; this is what the model-pruned search experiments build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.util.batching import evaluate_cost_batch
from repro.util.compositions import compositions
from repro.util.validation import check_positive_int
from repro.wht.encoding import plan_key
from repro.wht.plan import MAX_UNROLLED, Plan, Small, _split_unchecked

__all__ = ["DPSearch", "DPSearchResult", "CandidateRecord"]

CostFunction = Callable[[Plan], float]


@lru_cache(maxsize=256)
def _bounded_compositions(m: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of ``m`` with between 2 and ``max_parts`` parts.

    Generated directly (rather than filtering the full ``2^(m-1)`` composition
    set) so the DP stays polynomial in ``m`` for a fixed children bound, and
    memoised: every DP round over ``m`` asks for the same ones.
    """

    def helper(remaining: int, parts_left: int, prefix: tuple[int, ...]):
        if remaining == 0:
            if len(prefix) >= 2:
                yield prefix
            return
        if parts_left == 0:
            return
        # The final part may absorb everything that remains.
        for part in range(1, remaining + 1):
            yield from helper(remaining - part, parts_left - 1, prefix + (part,))

    return tuple(helper(m, max_parts, ()))


@dataclass(frozen=True)
class CandidateRecord:
    """One evaluated candidate during the DP search."""

    exponent: int
    plan: Plan
    cost: float


@dataclass
class DPSearchResult:
    """Outcome of a DP search up to some maximum exponent.

    Candidate records are indexed by exponent (``candidates_for`` is a
    dictionary lookup, not a scan) and recording can be disabled entirely
    with ``record_candidates=False`` so large searches stay memory-bounded:
    the evaluation counter and the best plans/costs are tracked either way.
    """

    #: Best plan found for every exponent, keyed by exponent.
    best_plans: dict[int, Plan] = field(default_factory=dict)
    #: Cost of the best plan for every exponent.
    best_costs: dict[int, float] = field(default_factory=dict)
    #: Evaluated candidates, grouped by exponent in evaluation order.
    candidates_by_exponent: dict[int, list[CandidateRecord]] = field(default_factory=dict)
    #: Whether candidate records are retained (the counter always is).
    record_candidates: bool = True
    #: Total number of cost evaluations performed.
    evaluations: int = 0

    @property
    def candidates(self) -> tuple[CandidateRecord, ...]:
        """Every recorded candidate, in evaluation order (read-only view).

        Exponents are searched in ascending order and records are grouped
        per exponent as they are evaluated, so flattening the groups in
        insertion order reproduces the global evaluation order.  A tuple is
        returned so code that used to mutate the historical list field fails
        loudly instead of silently losing records.
        """
        return tuple(
            record
            for records in self.candidates_by_exponent.values()
            for record in records
        )

    def record(self, record: CandidateRecord) -> None:
        """Count (and, if enabled, retain) one evaluated candidate."""
        self.evaluations += 1
        if self.record_candidates:
            self.candidates_by_exponent.setdefault(record.exponent, []).append(record)

    def best(self, n: int) -> Plan:
        """Best plan for exponent ``n`` (raises ``KeyError`` if not searched)."""
        return self.best_plans[n]

    def candidates_for(self, n: int) -> list[CandidateRecord]:
        """All candidates evaluated for exponent ``n`` (indexed lookup)."""
        return list(self.candidates_by_exponent.get(n, ()))


class DPSearch:
    """Bottom-up dynamic-programming plan search.

    Parameters
    ----------
    cost:
        Maps a plan to a scalar cost (lower is better); each round's
        candidates go to ``cost.batch`` in one call when it has one.  In the
        package this is an engine surface or ``engine.cost(objective)``
        (:mod:`repro.runtime.cost_engine`): simulated cycles, an analytic
        model or any other objective.
    max_leaf:
        Largest exponent considered as an unrolled leaf candidate.
    max_children:
        Largest number of parts allowed in a candidate root composition.
        ``None`` means unrestricted (exponential in ``n``; fine for small
        exponents, prohibitive beyond ~12).  The package's practical searches
        restrict this; the default of 2 plus the always-included iterative
        composition reproduces the structure of the plans the paper's "best"
        algorithm exhibits (large unrolled base cases combined recursively).
    include_iterative:
        Always evaluate the radix-1 iterative composition (``m`` parts of 1)
        in addition to the restricted compositions.
    record_candidates:
        Retain per-candidate records on the result (default).  ``False``
        keeps only best plans/costs and the evaluation counter, bounding the
        result's memory independently of the search size.
    """

    def __init__(
        self,
        cost: CostFunction,
        max_leaf: int = MAX_UNROLLED,
        max_children: int | None = 2,
        include_iterative: bool = True,
        record_candidates: bool = True,
    ):
        if not callable(cost):
            raise TypeError(f"cost must be callable, not {cost!r}")
        check_positive_int(max_leaf, "max_leaf")
        if max_leaf > MAX_UNROLLED:
            raise ValueError(f"max_leaf must be at most {MAX_UNROLLED}")
        if max_children is not None:
            check_positive_int(max_children, "max_children")
            if max_children < 2:
                raise ValueError("max_children must be at least 2")
        self.cost = cost
        self.max_leaf = max_leaf
        self.max_children = max_children
        self.include_iterative = include_iterative
        self.record_candidates = record_candidates

    # -- candidate generation ---------------------------------------------------

    def candidate_compositions(self, m: int) -> list[tuple[int, ...]]:
        """Root compositions evaluated for exponent ``m`` (excluding the leaf)."""
        check_positive_int(m, "m")
        seen: set[tuple[int, ...]] = set()
        out: list[tuple[int, ...]] = []
        if self.max_children is None:
            source = compositions(m, min_parts=2)
        else:
            source = _bounded_compositions(m, self.max_children)
        for comp in source:
            if comp not in seen:
                seen.add(comp)
                out.append(comp)
        if self.include_iterative and m >= 2:
            iterative = tuple([1] * m)
            if iterative not in seen:
                seen.add(iterative)
                out.append(iterative)
        return out

    # -- search -----------------------------------------------------------------

    def search(self, n: int) -> DPSearchResult:
        """Run the DP for every exponent from 1 to ``n``."""
        check_positive_int(n, "n")
        result = DPSearchResult(record_candidates=self.record_candidates)
        for m in range(1, n + 1):
            self._search_exponent(m, result)
        return result

    def extend(self, result: DPSearchResult, n: int) -> DPSearchResult:
        """Extend an existing result up to exponent ``n`` (reusing prior work)."""
        check_positive_int(n, "n")
        for m in range(1, n + 1):
            if m not in result.best_plans:
                self._search_exponent(m, result)
        return result

    def _search_exponent(self, m: int, result: DPSearchResult) -> None:
        # Generate the round's candidates (deduplicated by plan key), then
        # evaluate them as one batch so the cost can amortise work across the
        # round — vectorised model scoring, backend fan-out, cache lookups.
        plans: list[Plan] = []
        seen: set[str] = set()

        def add(plan: Plan) -> None:
            key = plan_key(plan)
            if key not in seen:
                seen.add(key)
                plans.append(plan)

        if m <= self.max_leaf:
            add(Small(m))
        for comp in self.candidate_compositions(m):
            children = []
            feasible = True
            for part in comp:
                child = result.best_plans.get(part)
                if child is None:
                    feasible = False
                    break
                children.append(child)
            if not feasible:  # pragma: no cover - parts are always smaller than m
                continue
            # Best plans of parts that sum to ``m``: nothing left to check.
            add(_split_unchecked(tuple(children), m))
        if not plans:
            raise RuntimeError(
                f"no candidate plan found for exponent {m} "
                f"(max_leaf={self.max_leaf}, max_children={self.max_children})"
            )

        best_plan: Plan | None = None
        best_cost = float("inf")
        for plan, value in zip(plans, evaluate_cost_batch(self.cost, plans)):
            result.record(CandidateRecord(exponent=m, plan=plan, cost=value))
            if value < best_cost:
                best_cost = value
                best_plan = plan
        if best_plan is None:
            # Every candidate evaluated to NaN (or nothing beat +inf): fail
            # here, at the exponent that produced it, rather than handing a
            # None best plan to later rounds.
            raise RuntimeError(
                f"no candidate plan of exponent {m} received a comparable "
                f"cost (all {len(plans)} evaluations were NaN or +inf)"
            )
        result.best_plans[m] = best_plan
        result.best_costs[m] = best_cost
