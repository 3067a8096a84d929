"""Declarative experiment suites: ``repro.suite(spec).run()``.

One JSON/dict spec declares machines x scales x seeds x experiments
(figures, summary tables, objective sweeps, searches); the runner executes
it baseline-first through a :class:`~repro.runtime.session.Session` (any
backend, store, or connected/remote service), streams results to pluggable
sinks, and records a resume manifest.  See DESIGN.md section 14.

Package map:

* :mod:`~repro.suite.spec` — :class:`SuiteSpec` validation and hashing,
* :mod:`~repro.suite.context` — per-(machine, seed) sessions + baselines,
* :mod:`~repro.suite.figures` — the spec-addressable experiment kinds,
* :mod:`~repro.suite.sweep` — the objective-sweep / rank-disagreement kind,
* :mod:`~repro.suite.sinks` — CSV/JSONL/figure-artifact/memory sinks,
* :mod:`~repro.suite.manifest` — the per-unit resume ledger,
* :mod:`~repro.suite.runner` — DAG expansion and execution,
* :mod:`~repro.suite.api` — the ``repro.suite(...)`` façade,
* :mod:`~repro.suite.cli` — ``python -m repro.suite``.

Note ``repro.suite`` the *name* is rebound to :func:`repro.suite.api.suite`
at the end of ``repro/__init__.py`` (callable façade), while this package
stays importable as ``from repro.suite.spec import ...`` and runnable as
``python -m repro.suite``.
"""

from __future__ import annotations

from repro.suite.api import suite
from repro.suite.context import CountingBackend, SuiteContext
from repro.suite.figures import experiment_kinds
from repro.suite.manifest import Manifest
from repro.suite.results import ExperimentResult, SuiteResult, SuiteTable
from repro.suite.runner import SuiteRun
from repro.suite.sinks import (
    CSVSink,
    FigureArtifactSink,
    JSONLSink,
    MemorySink,
    ResultSink,
)
from repro.suite.spec import ExperimentSpec, MachineSpec, SpecError, SuiteSpec, load_spec
from repro.suite.sweep import ObjectiveSweepResult, parse_objective

__all__ = [
    "suite",
    "SuiteRun",
    "SuiteSpec",
    "MachineSpec",
    "ExperimentSpec",
    "SpecError",
    "load_spec",
    "SuiteResult",
    "ExperimentResult",
    "SuiteTable",
    "SuiteContext",
    "CountingBackend",
    "Manifest",
    "ResultSink",
    "CSVSink",
    "JSONLSink",
    "FigureArtifactSink",
    "MemorySink",
    "ObjectiveSweepResult",
    "parse_objective",
    "experiment_kinds",
]
