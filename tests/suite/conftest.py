"""Shared fixtures for the suite-runner tests.

Everything runs the tiny machine at the CI scale so a whole suite completes
in well under a second; the specs cover every moving part (baseline-derived
figures, a summary table, a search, an objective sweep).
"""

from __future__ import annotations

import pytest

from _suite_helpers import tiny_spec_dict


@pytest.fixture
def tiny_spec():
    from repro.suite import SuiteSpec

    return SuiteSpec.from_dict(tiny_spec_dict())


@pytest.fixture
def prepared_keys(monkeypatch):
    """Plan keys in the order they reach preparation (cache hits excluded).

    Wraps the machine's fused preparation pipeline, which every measurement
    path (``prepare``, ``prepare_batch``, on any machine or thread) runs
    exactly for the plans its prepared-plan cache could not serve.
    """
    from repro.machine.machine import SimulatedMachine
    from repro.wht.encoding import plan_key

    keys: list[str] = []
    original = SimulatedMachine._prepare_fused

    def recording(self, plans):
        keys.extend(plan_key(plan) for plan in plans)
        return original(self, plans)

    monkeypatch.setattr(SimulatedMachine, "_prepare_fused", recording)
    return keys
