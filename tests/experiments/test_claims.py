"""Every paper claim holds on the committed paper suite.

Runs ``benchmarks/suites/paper.json`` at the default scale with 200 samples
(seed 20070122) into a memory store and checks each entry of
:data:`repro.experiments.paper_values.CLAIMS` against the units' artifacts.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.paper_values import CLAIMS
from repro.suite import SuiteRun, load_spec
from repro.suite.figures import PAPER_EXPERIMENTS
from repro.util.tables import format_table

PAPER_SPEC = Path(__file__).resolve().parents[2] / "benchmarks" / "suites" / "paper.json"


def _cell(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(f"{item:.3g}" for item in value)
    return "-" if value is None else f"{value:.4g}"


def test_one_claim_per_paper_experiment():
    assert sorted(CLAIMS) == sorted(PAPER_EXPERIMENTS)


def test_every_paper_claim_holds():
    spec = load_spec(PAPER_SPEC).with_scale({"sample_count": 200})
    result = SuiteRun(spec, store="memory").run(experiments=list(CLAIMS))
    assert result.ok, result.describe()
    artifacts = {unit.experiment_id: unit.artifact for unit in result}

    rows = []
    for claim_id, claim in CLAIMS.items():
        reproduced, holds = claim.check(artifacts, spec.scale)
        rows.append([claim_id, _cell(claim.paper), _cell(reproduced), holds, claim.statement])
    report = format_table(["claim", "paper", "reproduced", "holds", "statement"], rows)
    assert all(row[3] for row in rows), "\n" + report
