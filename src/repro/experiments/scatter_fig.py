"""Scatter figures (Figures 6, 7 and 8).

Each scatter figure plots one model quantity against measured cycles for a
random-sample campaign, reports the Pearson correlation coefficient, and marks
the canonical algorithms and the DP-best algorithm as named reference points
(the paper notes when a reference point falls outside the sample's range, as
the left recursive algorithm does at size 2^18).
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.scatter import ScatterData, scatter_data
from repro.runtime.table import MeasurementTable
from repro.machine.measurement import Measurement

__all__ = ["scatter_figure"]


def scatter_figure(
    table: MeasurementTable,
    x_metric: str = "instructions",
    y_metric: str = "cycles",
    references: Mapping[str, Measurement] | None = None,
    reference_points: Mapping[str, tuple[float, float]] | None = None,
) -> ScatterData:
    """Scatter data of two campaign columns with optional reference algorithms.

    ``references`` maps algorithm names (``"iterative"``, ``"left"``,
    ``"right"``, ``"best"``) to their measurements at the same size; they are
    drawn as labelled points in the paper's figures.  For metrics that are
    not :class:`Measurement` attributes (e.g. the analytic ``model_*``
    columns grafted on by
    :func:`repro.experiments.model_scores.with_model_columns`) pass
    precomputed ``reference_points`` instead; both may be combined, with
    explicit points taking precedence.
    """
    ref_points: dict[str, tuple[float, float]] = {}
    for name, measurement in (references or {}).items():
        if measurement.n != table.n:
            raise ValueError(
                f"reference {name!r} is for size 2^{measurement.n}, "
                f"table is for 2^{table.n}"
            )
        ref_points[name] = (
            float(getattr(measurement, x_metric)),
            float(getattr(measurement, y_metric)),
        )
    ref_points.update(
        (name, (float(x), float(y)))
        for name, (x, y) in (reference_points or {}).items()
    )
    return scatter_data(
        table.column(x_metric),
        table.column(y_metric),
        x_label=x_metric,
        y_label=y_metric,
        references=ref_points,
    )
