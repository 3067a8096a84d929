"""Canonical-algorithm sweeps (Figures 1, 2 and 3).

For every size ``2^n`` in the sweep, the three canonical algorithms
(iterative, left recursive, right recursive) and the DP-best algorithm are
measured on the simulated machine; the figures plot the ratio of each
canonical algorithm's metric to the best algorithm's metric:

* Figure 1 — cycle-count ratios (the iterative/recursive crossover),
* Figure 2 — instruction-count ratios (iterative lowest everywhere),
* Figure 3 — cache-miss ratios (the paper plots ``log10`` of the ratio).

The measurements come from the suite's store-native canonical baseline
(:meth:`repro.suite.context.SuiteContext.canonical_table`), which derives
every noise draw from ``(seed, tag, n, index)`` and finds the best plans
through the cost engine, so a sweep is identical across backends, services
and cold/warm store states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.wht.plan import Plan

__all__ = ["CanonicalSweep", "CANONICAL_NAMES", "SWEEP_METRICS"]

#: Algorithm names in the order the paper's legends use.
CANONICAL_NAMES = ("iterative", "left", "right")

#: Metrics the sweep records for every algorithm and size.
SWEEP_METRICS = ("cycles", "instructions", "l1_misses", "l2_misses")


@dataclass(frozen=True)
class CanonicalSweep:
    """Canonical + DP-best metric values across sizes (Figures 1–3)."""

    sizes: tuple[int, ...]
    #: ``values[name][metric][i]`` at ``sizes[i]``; names are the canonical
    #: names plus ``"best"``.
    values: dict[str, dict[str, tuple[float, ...]]]
    #: DP-best plan per size exponent.
    best_plans: dict[int, Plan]

    def metric(self, name: str, metric: str) -> list[float]:
        """One algorithm's metric across the sweep sizes."""
        return list(self.values[name][metric])

    def ratios(self, metric: str) -> dict[str, list[float]]:
        """Canonical / best ratios for a metric, keyed by canonical name."""
        best = self.metric("best", metric)
        return {
            name: [
                v / b if b > 0 else float("inf")
                for v, b in zip(self.metric(name, metric), best)
            ]
            for name in CANONICAL_NAMES
        }

    def log10_ratios(self, metric: str) -> dict[str, list[float]]:
        """``log10`` of the canonical / best ratios (Figure 3's y axis)."""
        return {
            name: [math.log10(r) if r > 0 else float("-inf") for r in series]
            for name, series in self.ratios(metric).items()
        }

    def crossover_size(self, reference: str = "right") -> int | None:
        """Size from which a recursive algorithm overtakes the iterative one.

        Returns the exponent of the first sweep size from which ``reference``
        has a lower cycle count than the iterative algorithm *for every
        remaining size of the sweep*, or ``None`` if the iterative algorithm
        is never permanently overtaken (Figure 1's crossover point).  Requiring
        the lead to persist makes the detection robust to measurement noise at
        tiny sizes, where the canonical plans coincide structurally.
        """
        iterative = self.metric("iterative", "cycles")
        other = self.metric(reference, "cycles")
        crossover: int | None = None
        for size, it_value, other_value in zip(self.sizes, iterative, other):
            if other_value < it_value:
                if crossover is None:
                    crossover = size
            else:
                crossover = None
        return crossover
