"""Rank statistics against brute-force references, ties included."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pearson import pearson_correlation
from repro.analysis.rank import kendall_tau, rank_values, spearman_correlation


def brute_ranks(values):
    """O(n^2) tied-average ranks: 1 + (# smaller) + (# equal - 1) / 2."""
    values = list(values)
    return np.array(
        [
            1.0
            + sum(other < value for other in values)
            + (sum(other == value for other in values) - 1) / 2.0
            for value in values
        ]
    )


def brute_tau_b(x, y):
    """O(n^2) tau-b: pairwise concordance with the tie correction."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    total = n * (n - 1) // 2
    denom = (total - ties_x) * (total - ties_y)
    if denom <= 0:
        return 0.0
    return (concordant - discordant) / np.sqrt(denom)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_rank_values_matches_brute_force(seed, tied):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 8, size=60) if tied else rng.normal(size=60)
    np.testing.assert_allclose(rank_values(values), brute_ranks(values))


def test_rank_values_simple_ties():
    np.testing.assert_allclose(rank_values([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_allclose(rank_values([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_rank_values_rejects_2d():
    with pytest.raises(ValueError):
        rank_values(np.zeros((2, 2)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("tied", [False, True])
def test_spearman_matches_pearson_of_brute_ranks(seed, tied):
    rng = np.random.default_rng(seed)
    if tied:
        x = rng.integers(0, 6, size=40).astype(float)
        y = rng.integers(0, 6, size=40).astype(float)
    else:
        x = rng.normal(size=40)
        y = x + rng.normal(scale=0.5, size=40)
    expected = pearson_correlation(brute_ranks(x), brute_ranks(y))
    assert spearman_correlation(x, y) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("tied", [False, True])
def test_kendall_matches_brute_force(seed, tied):
    rng = np.random.default_rng(seed)
    if tied:
        x = rng.integers(0, 6, size=40).astype(float)
        y = rng.integers(0, 6, size=40).astype(float)
    else:
        x = rng.normal(size=40)
        y = rng.normal(size=40)
    assert kendall_tau(x, y) == pytest.approx(brute_tau_b(x, y), abs=1e-12)


def test_kendall_heavy_ties_odd_length_match_brute_force():
    # 97 is not a power of two: the merge-sort inversion count pads its input.
    rng = np.random.default_rng(7)
    x = rng.integers(0, 10, size=97).astype(float)
    y = rng.integers(0, 10, size=97).astype(float)
    assert kendall_tau(x, y) == pytest.approx(brute_tau_b(x, y), abs=1e-12)


def test_perfect_agreement_and_reversal():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert spearman_correlation(x, x) == pytest.approx(1.0)
    assert kendall_tau(x, x) == pytest.approx(1.0)
    assert spearman_correlation(x, -x) == pytest.approx(-1.0)
    assert kendall_tau(x, -x) == pytest.approx(-1.0)
    # Rank statistics see only the ordering, not the spacing.
    assert spearman_correlation(x, np.exp(x)) == pytest.approx(1.0)
    assert kendall_tau(x, np.exp(x)) == pytest.approx(1.0)


def test_fully_tied_sample_carries_no_ordering():
    x = np.array([3.0, 3.0, 3.0, 3.0])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert kendall_tau(x, y) == 0.0


def test_too_short_inputs_rejected():
    with pytest.raises(ValueError):
        spearman_correlation([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
