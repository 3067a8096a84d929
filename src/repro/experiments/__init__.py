"""Experiment harness: one module per figure/table of the paper's evaluation.

Each module computes one figure's data from measurement tables; the
experiment registry in :mod:`repro.suite.figures` is the single driver that
feeds them, both for declarative suite runs (``repro.suite(spec).run()``) and
for figure-at-a-time use (``session.suite().figure(kind)``):

==========  =====================================================  =======================
Paper item  Content                                                Experiment kind
==========  =====================================================  =======================
Figure 1    cycle ratio canonical/best vs size                     ``figure1``
Figure 2    instruction ratio canonical/best vs size               ``figure2``
Figure 3    cache-miss ratio canonical/best vs size                ``figure3``
Figure 4    histograms of cycles & instructions (small size)       ``figure4``
Figure 5    histograms of cycles, instructions, misses (large)     ``figure5``
Figure 6    scatter instructions vs cycles (small), rho            ``figure6``
Figure 7    scatter instructions vs cycles (large), rho            ``figure7``
Figure 8    scatter misses vs cycles (large), rho                  ``figure8``
Figure 9    correlation surface over (alpha, beta)                 ``figure9``
Figure 10   pruning curves vs instruction count (small)            ``figure10``
Figure 11   pruning curves vs combined model (large)               ``figure11``
Section 4   headline correlation coefficients                      ``correlations``
Section 2   algorithm-space size (~O(7^n))                         ``theory``
==========  =====================================================  =======================
"""

from repro.experiments.canonical import CanonicalSweep
from repro.experiments.histograms import HistogramFigure, histogram_figure
from repro.experiments.model_scores import ModelScores, score_plans, with_model_columns
from repro.experiments.scatter_fig import scatter_figure
from repro.experiments.alphabeta import alphabeta_surface
from repro.experiments.pruning import PruningFigure, pruning_figure
from repro.experiments.correlation_table import CorrelationTable, correlation_table
from repro.experiments.theory_table import TheoryTable, theory_table
from repro.experiments import paper_values

__all__ = [
    "CanonicalSweep",
    "HistogramFigure",
    "histogram_figure",
    "ModelScores",
    "score_plans",
    "with_model_columns",
    "scatter_figure",
    "alphabeta_surface",
    "PruningFigure",
    "pruning_figure",
    "CorrelationTable",
    "correlation_table",
    "TheoryTable",
    "theory_table",
    "paper_values",
]
