"""Tests for the experiment-scale configuration."""

import pytest

from repro.config import ExperimentScale, ci_scale, default_scale, paper_scale


class TestExperimentScale:
    def test_defaults(self):
        scale = default_scale()
        assert scale.small_size == 9
        assert scale.large_size == 13
        assert scale.sample_count >= 100

    def test_paper_scale_matches_paper(self):
        scale = paper_scale()
        assert scale.small_size == 9
        assert scale.large_size == 18
        assert scale.canonical_max_size == 20
        assert scale.sample_count == 10_000

    def test_ci_scale_is_small(self):
        scale = ci_scale()
        assert scale.sample_count <= 100
        assert scale.large_size <= 8

    def test_small_must_be_less_than_large(self):
        with pytest.raises(ValueError):
            ExperimentScale(small_size=10, large_size=10)

    def test_with_samples(self):
        assert default_scale().with_samples(7).sample_count == 7

    def test_describe(self):
        assert "2^9" in default_scale().describe()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ExperimentScale(sample_count=0)

