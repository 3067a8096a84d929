"""Section 2 — size of the algorithm space and instruction-count extremes.

The paper motivates model-based pruning with the ~O(7^n) growth of the WHT
algorithm family.  This benchmark regenerates the exact counts, the growth
ratios and the extreme instruction counts (the quantities [5] analyses).
"""

from __future__ import annotations

from _bench_utils import run_once

from repro.experiments.report import render_theory_table
from repro.models.theory import rsu_instruction_moments, space_growth_ratios


def test_theory_space_size_table(benchmark, suite):
    table = run_once(benchmark, suite.figure, "theory", max_size=12)
    print()
    print(render_theory_table(table))
    ratios = space_growth_ratios(20)
    print(f"growth ratio at n=20: {ratios[-1]:.3f} (approaches ~7)")
    moments = rsu_instruction_moments(10)
    print(
        f"RSU instruction-count moments at n=10: mean={moments.mean:.4g}, "
        f"std={moments.std:.4g} (cv={moments.coefficient_of_variation:.3f})"
    )

    rows = table.as_rows()
    counts = [row[1] for row in rows]
    # Strictly growing, and growing faster than 4^n but no faster than 7^n.
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert all(4.0 <= b / a <= 7.2 for a, b in zip(counts[4:], counts[5:]))
    # The instruction-count extremes bracket the RSU mean at every tabulated size.
    for row in rows:
        _, _, _, min_count, max_count, _ = row
        if row[0] >= 2:
            assert min_count < max_count
    assert rows[9][3] <= moments.mean <= rows[9][4]  # row for n = 10
