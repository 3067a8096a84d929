"""The (alpha, beta) correlation surface (Figure 9).

Figure 9 plots the Pearson correlation between measured cycle counts and the
combined model ``alpha * instructions + beta * misses`` over a grid of
coefficients (both from 0 to 1 in steps of 0.05); the paper's optimum for size
2^18 is ``alpha = 1.00, beta = 0.05`` with ``rho = 0.92``.
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.table import MeasurementTable
from repro.models.combined import CorrelationSurface, optimize_combined_model

__all__ = ["alphabeta_surface"]


def alphabeta_surface(
    table: MeasurementTable,
    alphas: Sequence[float] | None = None,
    betas: Sequence[float] | None = None,
    miss_column: str = "l1_misses",
) -> CorrelationSurface:
    """Correlation surface of the combined model over a campaign table."""
    return optimize_combined_model(
        instructions=table.instructions,
        misses=table.column(miss_column),
        cycles=table.cycles,
        alphas=alphas,
        betas=betas,
    )
