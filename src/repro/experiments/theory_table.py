"""Algorithm-space size table (Section 2's ``O(7^n)`` remark).

Not a numbered figure, but part of the paper's evaluation context: the number
of WHT algorithms grows roughly like ``7^n``, which is why exhaustive search is
infeasible and model-based pruning matters.  The table lists the exact plan
count, the growth ratio, and the extreme instruction counts for a range of
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.models.theory import algorithm_space_size, extreme_instruction_counts
from repro.util.validation import check_positive_int
from repro.wht.plan import MAX_UNROLLED

__all__ = ["TheoryTable", "theory_table"]


@dataclass(frozen=True)
class TheoryTable:
    """Rows of (n, plan count, growth ratio, min/max instruction count)."""

    rows: tuple[dict, ...]

    def as_rows(self) -> list[list]:
        """Row lists in column order n / count / ratio / min I / max I / spread."""
        return [
            [
                row["n"],
                row["count"],
                row["growth"],
                row["min_instructions"],
                row["max_instructions"],
                row["spread"],
            ]
            for row in self.rows
        ]

    @property
    def headers(self) -> list[str]:
        """Column headers matching :meth:`as_rows`."""
        return ["n", "plans", "W(n)/W(n-1)", "min I", "max I", "max/min"]


def theory_table(
    sizes: Sequence[int],
    max_leaf: int = MAX_UNROLLED,
    include_extremes: bool = True,
) -> TheoryTable:
    """Build the table for the requested size exponents."""
    rows: list[dict] = []
    for n in sorted(int(s) for s in sizes):
        check_positive_int(n, "size exponent")
        count = algorithm_space_size(n, max_leaf=max_leaf)
        # W(n)/W(n-1) even when n - 1 is not among the requested sizes.
        growth = count / algorithm_space_size(n - 1, max_leaf=max_leaf) if n > 1 else float("nan")
        row = {
            "n": n,
            "count": count,
            "growth": growth,
            "min_instructions": float("nan"),
            "max_instructions": float("nan"),
            "spread": float("nan"),
        }
        if include_extremes:
            extremes = extreme_instruction_counts(n, max_leaf=max_leaf)
            row["min_instructions"] = extremes.min_count
            row["max_instructions"] = extremes.max_count
            row["spread"] = extremes.spread
        rows.append(row)
    return TheoryTable(rows=tuple(rows))
