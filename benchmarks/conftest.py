"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every figure of the paper on the *scaled* default
machine (see DESIGN.md).  The sample count and sweep sizes come from
:func:`repro.config.scale_from_env`, so a larger (or smaller) campaign can be
requested without editing code::

    REPRO_SAMPLE_COUNT=2000 pytest benchmarks/ --benchmark-only

The figure benchmarks (``bench_fig01`` … ``bench_fig11``) are thin wrappers
over the committed suite spec ``benchmarks/suites/paper.json``: each one runs
its experiment through the session-scoped :func:`suite_run` (the declarative
suite runner) and asserts on the resulting figure and artifact.  The summary
and ablation benchmarks build single figures through the :func:`suite`
fixture, a figure-at-a-time view over the same experiment registry.
Campaigns are shared two ways: the suite runner materialises each baseline
once per context, and everything flows through the shared in-process
campaign store, so nothing is measured twice.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.config import scale_from_env
from repro.machine.configs import default_machine

#: Default sample count used by the benchmark campaigns when the environment
#: does not override it.  Large enough for stable correlations, small enough
#: to keep the whole benchmark suite to a few minutes of simulation.
BENCHMARK_SAMPLE_COUNT = 200

#: The committed spec the figure benchmarks wrap.
PAPER_SUITE_SPEC = os.path.join(os.path.dirname(__file__), "suites", "paper.json")


def benchmark_scale():
    """The experiment scale used by the benchmark suite."""
    scale = scale_from_env()
    if "REPRO_SAMPLE_COUNT" not in os.environ:
        scale = scale.with_samples(BENCHMARK_SAMPLE_COUNT)
    return scale


@pytest.fixture(scope="session")
def scale():
    """Session-wide experiment scale."""
    return benchmark_scale()


@pytest.fixture(scope="session")
def machine():
    """The scaled default machine shared by all benchmarks."""
    return default_machine()


@pytest.fixture(scope="session")
def suite(machine, scale):
    """Session-wide figure view (campaigns are computed once and cached)."""
    return repro.session(machine=machine, scale=scale).suite()


@pytest.fixture(scope="session")
def suite_run(scale):
    """The committed paper suite spec, configured at the benchmark scale.

    One :class:`repro.suite.SuiteRun` shared by every figure benchmark;
    individual benchmarks run single experiments out of it via
    :func:`_bench_utils.suite_unit`, so each figure is built exactly once
    and baselines/campaigns replay from the shared in-process store.
    """
    from repro.suite import SuiteRun, load_spec

    spec = load_spec(PAPER_SUITE_SPEC).with_scale(scale)
    return SuiteRun(spec, store="memory")
