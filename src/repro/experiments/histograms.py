"""Sample histograms (Figures 4 and 5).

Figure 4 shows 50-bin histograms of cycle counts and instruction counts for
10,000 RSU samples of size 2^9; Figure 5 adds the cache-miss histogram for
size 2^18.  Before binning, the paper removes extreme outliers beyond the IQR
outer fences; the same filter is applied here per metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.distribution import DistributionSummary, summarize_distribution
from repro.analysis.histogram import PAPER_BIN_COUNT, Histogram, histogram
from repro.analysis.outliers import remove_outer_fence_outliers
from repro.runtime.table import MeasurementTable

__all__ = ["HistogramFigure", "histogram_figure", "SMALL_SIZE_METRICS", "LARGE_SIZE_METRICS"]

#: Metrics shown for the in-cache size (Figure 4).
SMALL_SIZE_METRICS = ("cycles", "instructions")
#: Metrics shown for the out-of-cache size (Figure 5).
LARGE_SIZE_METRICS = ("cycles", "instructions", "l1_misses")


@dataclass(frozen=True)
class HistogramFigure:
    """Histograms and summary statistics of one campaign's metrics."""

    n: int
    sample_count: int
    histograms: dict[str, Histogram]
    summaries: dict[str, DistributionSummary]
    #: Number of observations removed by the outer-fence filter, per metric.
    outliers_removed: dict[str, int]

    def metric_names(self) -> tuple[str, ...]:
        """The metrics included in the figure."""
        return tuple(self.histograms)

    def render(self, width: int = 40) -> str:
        """ASCII rendering of every histogram with its summary line."""
        blocks: list[str] = []
        for name, hist in self.histograms.items():
            summary = self.summaries[name]
            title = (
                f"{name} (n=2^{self.n}, {self.sample_count} samples, "
                f"{self.outliers_removed[name]} outliers removed, "
                f"mean={summary.mean:.4g}, skew={summary.skewness:+.3f})"
            )
            blocks.append(hist.render(width=width, title=title))
        return "\n\n".join(blocks)


def histogram_figure(
    table: MeasurementTable,
    metrics: tuple[str, ...] = SMALL_SIZE_METRICS,
    bins: int = PAPER_BIN_COUNT,
    filter_outliers: bool = True,
) -> HistogramFigure:
    """Build the histogram figure for one campaign table."""
    histograms: dict[str, Histogram] = {}
    summaries: dict[str, DistributionSummary] = {}
    removed: dict[str, int] = {}
    for metric in metrics:
        values = table.column(metric)
        if filter_outliers:
            filt = remove_outer_fence_outliers(values)
            kept = filt.apply(values)
            removed[metric] = filt.removed
        else:
            kept = values
            removed[metric] = 0
        histograms[metric] = histogram(kept, bins=bins)
        summaries[metric] = summarize_distribution(kept)
    return HistogramFigure(
        n=table.n,
        sample_count=len(table),
        histograms=histograms,
        summaries=summaries,
        outliers_removed=removed,
    )
