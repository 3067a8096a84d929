"""Theoretical properties of the WHT algorithm space.

The paper leans on earlier theoretical work ([5], [8]) for three kinds of
statements, all reproduced here:

* the *size of the algorithm space* grows like ``O(7^n)``
  (:func:`algorithm_space_size`, :func:`space_growth_ratios`);
* the *extremes* of the instruction-count distribution — the minimum and
  maximum achievable counts, and which plans achieve them
  (:func:`extreme_instruction_counts`), found by an ``O(n^3)`` prefix DP
  over compositions rather than by enumerating them;
* the *moments* of the instruction-count distribution under the recursive
  split uniform (RSU) sampling distribution — mean and variance, computed
  exactly by recursion over the distribution (:func:`rsu_instruction_moments`);
  [5] proves the normalised distribution tends to a normal limit, which the
  empirical histograms of Figure 4 illustrate and the test suite checks
  qualitatively via skewness of large samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.machine.cpu import InstructionCostModel
from repro.models.instruction_count import instruction_count
from repro.util.compositions import compositions
from repro.util.validation import check_positive_int
from repro.wht.enumeration import count_plans, growth_ratios
from repro.wht.plan import MAX_UNROLLED, Plan, Small, Split

__all__ = [
    "algorithm_space_size",
    "space_growth_ratios",
    "ExtremePlans",
    "extreme_instruction_counts",
    "rsu_instruction_moments",
    "RSUMoments",
]


def algorithm_space_size(n: int, max_leaf: int = MAX_UNROLLED) -> int:
    """Exact number of WHT plans of size ``2^n`` (the ``O(7^n)`` family)."""
    return count_plans(n, max_leaf=max_leaf)


def space_growth_ratios(n_max: int, max_leaf: int = MAX_UNROLLED) -> list[float]:
    """Successive growth ratios of the space size (approaching ~7)."""
    return growth_ratios(n_max, max_leaf=max_leaf)


@dataclass(frozen=True)
class ExtremePlans:
    """Minimum- and maximum-instruction-count plans for one size."""

    n: int
    min_plan: Plan
    min_count: int
    max_plan: Plan
    max_count: int

    @property
    def spread(self) -> float:
        """Max count divided by min count."""
        return self.max_count / self.min_count if self.min_count else float("inf")


def _optimize_instruction_count(
    n: int,
    model: InstructionCostModel,
    max_leaf: int,
    maximize: bool,
) -> tuple[Plan, int]:
    """The plan of exponent ``n`` with the extreme instruction count, by DP.

    For a split ``split[c_1, ..., c_t]`` of exponent ``m``,
    :meth:`InstructionCostModel.instructions` is linear in the event counters
    (a split's ``child_calls`` never fall below its ``codelet_calls``), so its
    count is ``split_invocation_cost + sum_i term(p_i, c_i)`` with ``p_i`` the
    sum of the parts before ``c_i``::

        term(p, c) = outer_loop_cost + stride_loop_cost * 2^(m-p-c)
                   + block_loop_cost * 2^p + inner_loop_cost * 2^(m-c)
                   + 2^(m-c) * (X[c] + recursive_call_cost * [best[c] is a split])

    where ``X[c]`` is the optimum of exponent ``c`` and ``best[c]`` its plan.
    A suffix DP ``f[p] = better_c(term(p, c) + f[p + c])`` (with ``c < m`` at
    ``p = 0``, so every split has two parts or more) gives the best split of
    each exponent in ``O(m^2)`` steps, ``O(n^3)`` in all; only the winning
    plans are built.

    Ties go to the leaf, then to the lexicographically smallest composition:
    the composition is rebuilt greedily, taking at each ``p`` the smallest
    ``c`` whose ``term + f`` reaches the optimum.
    """
    better = max if maximize else min
    best: dict[int, Plan] = {}
    # Per-call cost of best[c] as a child: X[c] plus the dispatch overhead a
    # parent charges for non-leaf children.
    child_cost: dict[int, int] = {}
    count = 0
    for m in range(1, n + 1):

        def term(p: int, c: int) -> int:
            return (
                model.outer_loop_cost
                + model.stride_loop_cost * (1 << (m - p - c))
                + model.block_loop_cost * (1 << p)
                + (1 << (m - c)) * (model.inner_loop_cost + child_cost[c])
            )

        def parts_at(p: int) -> range:
            return range(1, m - p + (p > 0))

        plan: Plan | None = None
        if m <= max_leaf:
            plan = Small(m)
            count = instruction_count(plan, model)
        if m > 1:
            # f[p]: the extreme sum of terms over the compositions of m - p.
            f = [0] * (m + 1)
            for p in range(m - 1, -1, -1):
                f[p] = better(term(p, c) + f[p + c] for c in parts_at(p))
            split_count = model.split_invocation_cost + f[0]
            if plan is None or (split_count > count if maximize else split_count < count):
                children: list[Plan] = []
                p = 0
                while p < m:
                    part = next(c for c in parts_at(p) if term(p, c) + f[p + c] == f[p])
                    children.append(best[part])
                    p += part
                plan, count = Split(children), split_count
        best[m] = plan
        child_cost[m] = count + (model.recursive_call_cost if isinstance(plan, Split) else 0)
    return best[n], count


@lru_cache(maxsize=256)
def extreme_instruction_counts(
    n: int,
    cost_model: InstructionCostModel | None = None,
    max_leaf: int = MAX_UNROLLED,
) -> ExtremePlans:
    """The minimum and maximum instruction counts over all plans of size ``2^n``.

    Exact integer arithmetic throughout: a prefix DP over each exponent's
    compositions (:func:`_optimize_instruction_count`) costs ``O(n^3)`` steps
    in all and builds plan objects only for the winners, so ``n = 20`` takes
    milliseconds.  Among tied plans the leaf wins, then the lexicographically
    smallest composition.  The minimum is achieved by large-codelet
    iterative-style plans and the maximum by deep recursions with small
    leaves, mirroring the analysis of [5].
    """
    check_positive_int(n, "n")
    check_positive_int(max_leaf, "max_leaf")
    model = cost_model if cost_model is not None else InstructionCostModel()
    min_plan, min_count = _optimize_instruction_count(n, model, max_leaf, maximize=False)
    max_plan, max_count = _optimize_instruction_count(n, model, max_leaf, maximize=True)
    return ExtremePlans(
        n=n,
        min_plan=min_plan,
        min_count=min_count,
        max_plan=max_plan,
        max_count=max_count,
    )


@dataclass(frozen=True)
class RSUMoments:
    """Mean and variance of the instruction count under RSU sampling."""

    n: int
    mean: float
    variance: float

    @property
    def std(self) -> float:
        """Standard deviation."""
        return self.variance ** 0.5

    @property
    def coefficient_of_variation(self) -> float:
        """Standard deviation relative to the mean."""
        return self.std / self.mean if self.mean else float("inf")


def rsu_instruction_moments(
    n: int,
    cost_model: InstructionCostModel | None = None,
    max_leaf: int = MAX_UNROLLED,
) -> RSUMoments:
    """Exact mean and variance of the instruction count under RSU sampling.

    The recursion mirrors the sampling process: for exponent ``m`` every
    admissible composition (including the one-part "stop" composition when a
    codelet exists) is equally likely, and conditional on a composition the
    sub-plans are drawn independently.  Writing the count of a split as
    ``c(comp) + sum_i a_i X_i`` with ``a_i = 2^{m - m_i}`` and ``X_i`` the
    independent child counts, the conditional mean and variance are
    ``c + sum_i a_i E[X_i]`` and ``sum_i a_i^2 Var[X_i]``; the unconditional
    moments follow from the law of total mean/variance over the uniform
    composition choice.
    """
    check_positive_int(n, "n")
    model = cost_model if cost_model is not None else InstructionCostModel()

    leaf_counts = {
        m: float(instruction_count(Small(m), model)) for m in range(1, min(max_leaf, n) + 1)
    }

    # Per exponent m we track the moments of two random variables:
    #   X_m — the standalone instruction count of an RSU-random plan of
    #         exponent m (what instruction_count() returns for a root plan);
    #   Z_m — the per-call contribution of that plan when it appears as a
    #         child: Z_m = X_m + recursive_call_cost * [the plan is a split],
    #         because the parent's breakdown charges the dispatch overhead for
    #         non-leaf children only (leaf children carry their own codelet
    #         call overhead inside X already).
    mean_x: dict[int, float] = {}
    second_x: dict[int, float] = {}
    mean_z: dict[int, float] = {}
    second_z: dict[int, float] = {}
    dispatch = float(model.recursive_call_cost)

    for m in range(1, n + 1):
        # (mean, variance, is_split) of X conditional on each equally likely option.
        options: list[tuple[float, float, bool]] = []
        if m <= max_leaf:
            value = leaf_counts[m]
            options.append((value, 0.0, False))
        for comp in compositions(m, min_parts=2):
            size = 1 << m
            constant = float(model.split_invocation_cost)
            remaining = size
            inner = 1
            cond_mean = 0.0
            cond_var = 0.0
            for part in reversed(comp):
                part_size = 1 << part
                remaining //= part_size
                calls = remaining * inner
                constant += (
                    model.outer_loop_cost
                    + model.stride_loop_cost * inner
                    + model.block_loop_cost * remaining
                    + model.inner_loop_cost * calls
                )
                z_mean = mean_z[part]
                z_var = second_z[part] - z_mean * z_mean
                cond_mean += calls * z_mean
                cond_var += float(calls) ** 2 * z_var
                inner *= part_size
            options.append((constant + cond_mean, cond_var, True))

        count = len(options)
        mean_x[m] = sum(mu for mu, _, _ in options) / count
        second_x[m] = sum(var + mu * mu for mu, var, _ in options) / count
        mean_z[m] = sum(mu + (dispatch if is_split else 0.0) for mu, _, is_split in options) / count
        second_z[m] = (
            sum(
                var + (mu + (dispatch if is_split else 0.0)) ** 2
                for mu, var, is_split in options
            )
            / count
        )

    variance = second_x[n] - mean_x[n] * mean_x[n]
    return RSUMoments(n=n, mean=mean_x[n], variance=max(variance, 0.0))
