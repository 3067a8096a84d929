"""Find the fastest WHT algorithm for a machine (the WHT package's workload).

Run with::

    python examples/find_best_plan.py [n]

This is the generate-and-test scenario the paper's introduction motivates: an
adaptive library wants the fastest WHT implementation for *this* machine.  The
script runs the WHT package's dynamic-programming search on the simulated
machine, compares the result against the three canonical algorithms at every
size up to ``n`` (default 13), and prints the speedups — a textual version of
the paper's Figure 1 with the DP-best plan as the baseline.
"""

from __future__ import annotations

import sys

from repro.machine import default_machine
from repro.runtime import CostEngine
from repro.search import dp_best_plan
from repro.util.tables import format_table
from repro.wht import canonical_plans


def main(max_n: int = 13) -> None:
    machine = default_machine()
    print(f"Machine: {machine.config.describe()}\n")

    # One engine measures every plan, so a canonical plan and a DP candidate
    # draw their noise the same way (per plan, not in call order).
    engine = CostEngine(machine)
    rows = []
    best_plans = {}
    for n in range(4, max_n + 1):
        result = dp_best_plan(engine, n, max_children=2)
        best_plans[n] = result.best_plan
        plans = canonical_plans(n)
        canonicals = dict(zip(plans, engine.batch(list(plans.values()))))
        rows.append(
            [
                n,
                f"{result.best_cost:.3g}",
                f"{canonicals['iterative'] / result.best_cost:.2f}x",
                f"{canonicals['right'] / result.best_cost:.2f}x",
                f"{canonicals['left'] / result.best_cost:.2f}x",
                str(result.best_plan)[:48],
            ]
        )

    print(
        format_table(
            ["n", "best cycles", "iterative/best", "right/best", "left/best", "best plan"],
            rows,
            title="DP search results (ratios > 1 mean the canonical algorithm is slower)",
        )
    )

    boundary = machine.config.l2_capacity_exponent()
    print(
        f"\nNote how the iterative algorithm stays close to the best until the "
        f"L2 boundary (2^{boundary} elements) and falls behind beyond it, while the "
        f"best plans keep using large unrolled codelets — the paper's Figure 1 story."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 13)
