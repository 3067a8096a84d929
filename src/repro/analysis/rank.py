"""Rank statistics: tied ranks, Spearman's rho and Kendall's tau-b.

The objective-sweep experiment (see :mod:`repro.suite.sweep`) asks how much
two cost functions *disagree about the ordering* of a plan population — the
paper's model-comparison story recast as rank statistics.  Pearson
correlation (already in :mod:`repro.analysis.pearson`) measures linear
agreement of the values; the two coefficients here measure agreement of the
*ranks*:

* :func:`spearman_correlation` — Pearson correlation of the tied-average
  ranks.  Sensitive to how far individual plans move in the ordering.
* :func:`kendall_tau` — the tau-b coefficient: concordant minus discordant
  pairs over the tie-corrected pair count.  Sensitive to how many pairwise
  "which plan is faster?" verdicts flip between the two objectives.

Both are exact (no sampling, no approximation); ties — common when an
analytic model assigns the same value to structurally different plans — are
handled with average ranks (Spearman) and the tau-b correction (Kendall).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.pearson import pearson_correlation

__all__ = ["rank_values", "spearman_correlation", "kendall_tau"]


def rank_values(values: "Sequence[float] | np.ndarray") -> np.ndarray:
    """Ascending 1-based ranks with ties averaged (``scipy.rankdata`` style).

    The smallest value gets rank 1 — under a cost metric, rank 1 is the best
    plan.  Equal values share the mean of the ranks they would occupy.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"rank_values expects a 1-D array, got shape {array.shape}")
    order = np.argsort(array, kind="stable")
    ranks = np.empty(array.shape[0], dtype=float)
    ranks[order] = np.arange(1, array.shape[0] + 1, dtype=float)
    # Average the ranks within each tied group.
    sorted_values = array[order]
    boundaries = np.empty(array.shape[0], dtype=bool)
    if array.shape[0]:
        boundaries[0] = True
        boundaries[1:] = sorted_values[1:] != sorted_values[:-1]
        group_ids = np.cumsum(boundaries) - 1
        sums = np.zeros(group_ids[-1] + 1 if array.shape[0] else 0, dtype=float)
        counts = np.zeros_like(sums)
        np.add.at(sums, group_ids, ranks[order])
        np.add.at(counts, group_ids, 1.0)
        averaged = sums / counts
        ranks[order] = averaged[group_ids]
    return ranks


def spearman_correlation(
    x: "Sequence[float] | np.ndarray", y: "Sequence[float] | np.ndarray"
) -> float:
    """Spearman's rho: Pearson correlation of the tied-average ranks."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if xa.shape[0] < 2:
        raise ValueError("spearman_correlation requires at least two observations")
    return pearson_correlation(rank_values(xa), rank_values(ya))


def _tied_pairs(starts_run: np.ndarray) -> int:
    """Pairs inside runs of equal sorted values, given each run's first flag."""
    starts = np.flatnonzero(starts_run)
    sizes = np.diff(np.append(starts, starts_run.shape[0]))
    return int((sizes * (sizes - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs ``i < j`` with ``ranks[i] > ranks[j]``: a bottom-up merge sort.

    Each level splits the (padded) array into rows of ``2 * width`` whose
    halves are already sorted, counts for every right-half value the
    left-half values above it with one ``searchsorted`` (each row offset
    past the last, so the left halves concatenate sorted), then sorts the
    rows.  The padding is larger than every rank and sits at the end, so it
    never forms an inversion.
    """
    top = int(ranks.max()) + 1
    size = 1 << (ranks.shape[0] - 1).bit_length()
    merged = np.full(size, top, dtype=np.int64)
    merged[: ranks.shape[0]] = ranks
    inversions = 0
    width = 1
    while width < size:
        rows = merged.reshape(-1, 2 * width)
        offsets = np.arange(rows.shape[0], dtype=np.int64)[:, None] * (top + 1)
        left = (rows[:, :width] + offsets).ravel()
        right = (rows[:, width:] + offsets).ravel()
        row_ends = np.repeat(np.arange(1, rows.shape[0] + 1, dtype=np.int64) * width, width)
        inversions += int((row_ends - np.searchsorted(left, right, side="right")).sum())
        merged = np.sort(rows, axis=1).ravel()
        width *= 2
    return inversions


def kendall_tau(
    x: "Sequence[float] | np.ndarray",
    y: "Sequence[float] | np.ndarray",
) -> float:
    """Kendall's tau-b of two samples (exact, tie-corrected).

    ``tau_b = (C - D) / sqrt((T - Tx) * (T - Ty))`` where ``C``/``D`` count
    concordant/discordant pairs, ``T = n(n-1)/2`` is the pair count and
    ``Tx``/``Ty`` count pairs tied in ``x``/``y`` alone.  Computed by
    Knight's O(n log n) method: sort by ``(x, y)``; ``D`` is then the number
    of inversions of ``y``, and every tie term comes from the run lengths of
    equal values, so ``C = T - Tx - Ty + Txy - D`` with ``Txy`` the pairs
    tied in both.  All counts are exact integers.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = xa.shape[0]
    if n < 2:
        raise ValueError("kendall_tau requires at least two observations")
    order = np.lexsort((ya, xa))
    xs = xa[order]
    ys = ya[order]
    new_x = np.concatenate(([True], xs[1:] != xs[:-1]))
    new_y = np.concatenate(([True], ys[1:] != ys[:-1]))
    ties_x = _tied_pairs(new_x)
    ties_xy = _tied_pairs(new_x | new_y)
    ties_y = _tied_pairs(np.concatenate(([True], np.diff(np.sort(ya)) != 0)))
    total = n * (n - 1) // 2
    discordant = _inversions(np.unique(ya, return_inverse=True)[1][order])
    concordant = total - ties_x - ties_y + ties_xy - discordant
    denom_x = total - ties_x
    denom_y = total - ties_y
    if denom_x <= 0 or denom_y <= 0:
        # One sample is entirely tied: the ordering carries no information.
        return 0.0
    return (concordant - discordant) / float(np.sqrt(float(denom_x) * float(denom_y)))
