"""Pearson correlation.

The paper's quantitative results are Pearson correlation coefficients between
model values and measured cycle counts.  The coefficient is implemented
directly (and cross-checked against ``scipy.stats.pearsonr`` in the tests) so
the package carries no runtime dependency on SciPy's statistical distributions
for its core numbers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["pearson_correlation", "correlation_matrix", "fisher_confidence_interval"]


def pearson_correlation(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """The Pearson correlation coefficient of two equal-length samples.

    Raises ``ValueError`` for samples of fewer than two points or mismatched
    lengths; returns ``nan`` when either sample is constant (the coefficient
    is undefined in that case).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("pearson_correlation expects 1-D samples")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(
            f"samples must have equal length, got {xa.shape[0]} and {ya.shape[0]}"
        )
    if xa.shape[0] < 2:
        raise ValueError("need at least two observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return float("nan")
    return float((xc * yc).sum() / denom)


def correlation_matrix(columns: Mapping[str, Sequence[float] | np.ndarray]) -> dict[tuple[str, str], float]:
    """Pairwise Pearson correlations of named columns.

    Returns a dictionary keyed by ordered name pairs ``(a, b)`` with ``a < b``.
    """
    names = sorted(columns)
    out: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            out[(a, b)] = pearson_correlation(columns[a], columns[b])
    return out


def fisher_confidence_interval(
    rho: float,
    sample_size: int,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Approximate confidence interval for a correlation via Fisher's z.

    Indicates how tightly the reproduced coefficients are estimated at the
    chosen sample sizes.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if sample_size < 4:
        raise ValueError("need at least four observations for the interval")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    from scipy.stats import norm

    z = np.arctanh(min(max(rho, -0.999999), 0.999999))
    se = 1.0 / np.sqrt(sample_size - 3)
    quantile = norm.ppf(0.5 + confidence / 2.0)
    lo, hi = z - quantile * se, z + quantile * se
    return float(np.tanh(lo)), float(np.tanh(hi))
