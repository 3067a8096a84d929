"""Section 4 headline numbers — the correlation table.

Reproduces all four of the paper's quoted correlation coefficients (0.96,
0.77, 0.66, 0.92 on the Opteron) on the scaled simulated machine and checks
the structural ordering the paper's argument rests on.
"""

from __future__ import annotations

from _bench_utils import run_once

from repro.experiments import paper_values
from repro.experiments.report import render_correlation_table


def test_correlation_table(benchmark, suite):
    table = run_once(benchmark, suite.figure, "correlations")
    print()
    print(
        render_correlation_table(
            table,
            paper={
                "rho_small_instructions": paper_values.PAPER_RHO_SMALL_INSTRUCTIONS,
                "rho_large_instructions": paper_values.PAPER_RHO_LARGE_INSTRUCTIONS,
                "rho_large_misses": paper_values.PAPER_RHO_LARGE_MISSES,
                "rho_large_combined": paper_values.PAPER_RHO_LARGE_COMBINED,
            },
        )
    )

    assert table.satisfies_paper_ordering()
    assert table.rho_small_instructions > 0.9
    assert table.rho_large_instructions < table.rho_small_instructions
    assert table.rho_large_combined > 0.85
