"""A miniature end-to-end rerun of the paper's correlation study.

Run with::

    python examples/correlation_study.py [samples] [backend]

where ``backend`` is ``serial`` (default), ``multiprocess`` or ``batched``;
every backend produces bit-identical campaign tables.

This reproduces the paper's Section 3/4 methodology at reduced sample count
(default 150 random algorithms per size instead of 10,000): it measures a
random sample of WHT algorithms at the in-cache and out-of-cache sizes,
computes the correlation of instruction counts and cache misses with cycle
counts, fits the combined model, and prints the pruning thresholds — i.e. the
content of Figures 4 through 11 in text form.  Expect a few minutes of
simulation at the default settings.
"""

from __future__ import annotations

import sys
import time

import repro
from repro.config import default_scale


def main(samples: int = 150, backend: str = "serial") -> None:
    scale = default_scale().with_samples(samples)
    sess = repro.session(machine="default", scale=scale, backend=backend)
    suite = sess.suite()
    start = time.perf_counter()

    print(f"Session : {sess.describe()}")
    print(f"Machine : {suite.machine.config.describe()}")
    print(f"Scale   : {scale.describe()}\n")

    correlations = suite.figure("correlations")
    print("Headline correlations (paper: 0.96 / 0.77 / 0.66 / 0.92):")
    for description, value in correlations.as_rows():
        print(f"  {description:55s} {value:6.3f}")
    print(f"  qualitative ordering holds: {correlations.satisfies_paper_ordering()}")

    print("\nFigure 10/11 pruning thresholds:")
    print(suite.figure("figure10").describe())
    print()
    print(suite.figure("figure11").describe())

    alpha, beta, rho = suite.figure("figure9").best
    print(
        f"\nBest combined model: {alpha:.2f} * instructions + {beta:.2f} * misses "
        f"(rho = {rho:.3f}); the ratio beta/alpha ~ the machine's per-miss cycle cost."
    )
    print(f"\nTotal simulation time: {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 150,
        backend=sys.argv[2] if len(sys.argv) > 2 else "serial",
    )
