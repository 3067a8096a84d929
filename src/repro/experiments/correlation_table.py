"""Headline correlation coefficients (Section 4 of the paper).

The paper's quantitative summary:

* size 2^9 (fits L1): rho(instructions, cycles) = 0.96,
* size 2^18 (does not fit L1): rho(instructions, cycles) = 0.77,
  rho(L1 misses, cycles) = 0.66,
  rho(alpha*I + beta*M, cycles) = 0.92 at the optimal (alpha, beta) = (1.00, 0.05).

:func:`correlation_table` reproduces all four numbers (plus the optimal
coefficients) from two campaign tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pearson import pearson_correlation
from repro.experiments.alphabeta import alphabeta_surface
from repro.runtime.table import MeasurementTable
from repro.models.combined import CombinedModel

__all__ = ["CorrelationTable", "correlation_table"]


@dataclass(frozen=True)
class CorrelationTable:
    """The reproduction's analogue of the paper's headline correlations."""

    small_n: int
    large_n: int
    #: rho(instructions, cycles) at the small (in-cache) size.
    rho_small_instructions: float
    #: rho(instructions, cycles) at the large (out-of-cache) size.
    rho_large_instructions: float
    #: rho(L1 misses, cycles) at the large size.
    rho_large_misses: float
    #: rho(alpha*I + beta*M, cycles) at the large size, at the optimal grid point.
    rho_large_combined: float
    #: The optimal combined-model coefficients found on the grid.
    best_alpha: float
    best_beta: float

    def best_model(self) -> CombinedModel:
        """The optimal combined model."""
        return CombinedModel(alpha=self.best_alpha, beta=self.best_beta)

    def as_rows(self) -> list[tuple[str, float]]:
        """(description, value) rows for report rendering."""
        return [
            (f"rho(I, cycles), size 2^{self.small_n}", self.rho_small_instructions),
            (f"rho(I, cycles), size 2^{self.large_n}", self.rho_large_instructions),
            (f"rho(M, cycles), size 2^{self.large_n}", self.rho_large_misses),
            (
                f"rho({self.best_alpha:.2f}*I + {self.best_beta:.2f}*M, cycles), "
                f"size 2^{self.large_n}",
                self.rho_large_combined,
            ),
        ]

    def satisfies_paper_ordering(self) -> bool:
        """The structural claim of Section 4, independent of exact values.

        In-cache instruction correlation is high; it drops out of cache; the
        miss-only correlation is weaker than the instruction correlation out
        of cache; and the combined model restores a correlation at least as
        strong as either individual model out of cache.
        """
        return (
            self.rho_small_instructions > self.rho_large_instructions
            and self.rho_large_combined >= self.rho_large_instructions
            and self.rho_large_combined >= self.rho_large_misses
        )


def correlation_table(
    small_table: MeasurementTable,
    large_table: MeasurementTable,
) -> CorrelationTable:
    """Compute the headline correlations from the two campaign tables."""
    surface = alphabeta_surface(large_table)
    alpha, beta, rho_combined = surface.best
    return CorrelationTable(
        small_n=small_table.n,
        large_n=large_table.n,
        rho_small_instructions=pearson_correlation(
            small_table.instructions, small_table.cycles
        ),
        rho_large_instructions=pearson_correlation(
            large_table.instructions, large_table.cycles
        ),
        rho_large_misses=pearson_correlation(large_table.l1_misses, large_table.cycles),
        rho_large_combined=rho_combined,
        best_alpha=alpha,
        best_beta=beta,
    )
