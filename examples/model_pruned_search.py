"""Model-pruned search: the paper's conclusion, operationally.

Run with::

    python examples/model_pruned_search.py [n] [samples]

The paper concludes that, because the instruction-count and cache-miss models
correlate with runtime and can be evaluated from the high-level algorithm
description, a search can discard most candidate algorithms *without measuring
them*.  This script quantifies that claim on the simulated machine: it draws
one pool of random candidate algorithms and compares

* a full search that measures every candidate, with
* a pruned search that scores all candidates with the combined analytic model
  (``alpha*I + beta*M``), measures only the most promising quarter, and

reports how much measurement was saved and how much performance was given up.
Each search measures through its own :class:`~repro.runtime.CostEngine`, so
its measurement count is its own; both engines draw the same per-plan noise,
so a plan measures the same in either search.
"""

from __future__ import annotations

import sys

from repro.machine import default_machine
from repro.runtime import CostEngine, WeightedObjective
from repro.search import ModelPrunedSearch, RandomSearch


def main(n: int = 12, samples: int = 120) -> None:
    machine = default_machine()
    print(f"Machine: {machine.config.describe()}")
    print(f"Searching {samples} random candidates of size 2^{n}\n")

    seed = 2007

    # Full search: measure everything.
    full_engine = CostEngine(machine)
    full = RandomSearch(full_engine, samples=samples).search(n, rng=seed)
    print(
        f"full search      : best {full.best_cost:12.0f} cycles after "
        f"{full_engine.measured} measurements"
    )

    # Pruned search: same candidate pool, but only the model-selected quarter
    # is ever measured.  The model scores use the machine's own L1 geometry.
    pruned_engine = CostEngine(machine)
    pruned_search = ModelPrunedSearch(
        model_cost=pruned_engine.cost(WeightedObjective.model_combined(1.0, 20.0)),
        measure_cost=pruned_engine,
        samples=samples,
        keep_fraction=0.25,
    )
    report = pruned_search.search(n, rng=seed)
    result = report.result
    print(
        f"model-pruned     : best {result.best_cost:12.0f} cycles after "
        f"{report.measured_evaluations} measurements "
        f"({report.measurement_savings * 100:.0f}% of measurements avoided)"
    )

    slowdown = result.best_cost / full.best_cost
    print(
        f"\nThe pruned search kept {(1 - report.pruned_fraction) * 100:.0f}% of the "
        f"candidates and found a plan within {100 * (slowdown - 1):.1f}% of the full "
        f"search's best."
    )
    print(f"full search best plan   : {full.best_plan}")
    print(f"pruned search best plan : {result.best_plan}")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    samples = int(sys.argv[2]) if len(sys.argv) > 2 else 120
    main(n, samples)
