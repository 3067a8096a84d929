"""Percentile pruning figures (Figures 10 and 11).

Figure 10 plots, for size 2^9, the cumulative fraction of sampled algorithms
with performance outside the top ``p`` percent as a function of an
instruction-count threshold; Figure 11 repeats the analysis for size 2^18 with
the combined model ``1 x Instructions + 0.05 x Misses`` on the x axis.  The
figures justify pruning: a threshold well below the maximum already captures
every top-``p`` algorithm, so everything above it need not be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.cdf import PAPER_PERCENTILES, PruningCurve, pruning_curves, safe_pruning_threshold
from repro.runtime.table import MeasurementTable
from repro.models.combined import CombinedModel

__all__ = ["PruningFigure", "pruning_figure"]


@dataclass(frozen=True)
class PruningFigure:
    """Pruning curves plus the derived safe-pruning thresholds."""

    n: int
    #: Human-readable name of the model quantity on the x axis.
    model_label: str
    curves: tuple[PruningCurve, ...]
    #: ``safe_thresholds[p]`` = (threshold, fraction of sample discarded).
    safe_thresholds: dict[float, tuple[float, float]]

    def curve(self, percentile: float) -> PruningCurve:
        """The curve for one percentile."""
        for c in self.curves:
            if abs(c.percentile - percentile) < 1e-9:
                return c
        raise KeyError(f"no curve for percentile {percentile}")

    def describe(self) -> str:
        """One line per percentile: safe threshold and pruning payoff."""
        lines = [f"Pruning by {self.model_label} at size 2^{self.n}:"]
        for p, (threshold, discarded) in sorted(self.safe_thresholds.items()):
            lines.append(
                f"  top {p:g}%: keep {self.model_label} <= {threshold:.4g} "
                f"(discards {discarded * 100:.1f}% of the sample, keeps every "
                f"top-{p:g}% algorithm)"
            )
        return "\n".join(lines)


def pruning_figure(
    table: MeasurementTable,
    model_values: Sequence[float] | np.ndarray | None = None,
    model_label: str = "instructions",
    combined: CombinedModel | None = None,
    percentiles: Sequence[float] = PAPER_PERCENTILES,
) -> PruningFigure:
    """Build a pruning figure from a campaign table.

    By default the model quantity is the instruction count (Figure 10).  Pass
    ``combined`` to use ``alpha * I + beta * M`` (Figure 11), or supply
    arbitrary precomputed ``model_values``.
    """
    if model_values is not None and combined is not None:
        raise ValueError("pass either model_values or combined, not both")
    if combined is not None:
        values = combined.values(table.instructions, table.l1_misses)
        label = combined.describe()
    elif model_values is not None:
        values = np.asarray(model_values, dtype=float)
        label = model_label
    else:
        values = table.instructions
        label = model_label
    curves = pruning_curves(values, table.cycles, percentiles=percentiles)
    thresholds = {
        float(p): safe_pruning_threshold(values, table.cycles, percentile=float(p))
        for p in percentiles
    }
    return PruningFigure(
        n=table.n,
        model_label=label,
        curves=tuple(curves),
        safe_thresholds=thresholds,
    )
