"""Plain-text rendering of tables and series.

The experiment kinds reproduce the paper's figures as *data series*; these
helpers render them in a compact, aligned, ASCII form so reports and test
failure messages stay human-readable without a plotting dependency.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = ["format_table", "format_series", "format_histogram"]


def _fmt_cell(value: Any, float_fmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    float_fmt: str = ".4g",
    title: str | None = None,
) -> str:
    """Render ``rows`` as an aligned ASCII table with ``headers``."""
    str_rows = [[_fmt_cell(c, float_fmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    x: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    x_label: str = "x",
    float_fmt: str = ".4g",
    title: str | None = None,
) -> str:
    """Render one or more aligned series against a shared x axis."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, xv in enumerate(x):
        row = [xv]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else "")
        rows.append(row)
    return format_table(headers, rows, float_fmt=float_fmt, title=title)


def format_histogram(
    edges: Sequence[float],
    counts: Sequence[int],
    width: int = 40,
    title: str | None = None,
) -> str:
    """Render a histogram as horizontal ASCII bars."""
    if len(edges) != len(counts) + 1:
        raise ValueError("edges must have exactly one more element than counts")
    peak = max(counts) if len(counts) else 0
    lines: list[str] = []
    if title:
        lines.append(title)
    for i, count in enumerate(counts):
        bar = "#" * (0 if peak == 0 else int(round(width * count / peak)))
        lines.append(f"[{edges[i]:>12.4g}, {edges[i + 1]:>12.4g})  {count:>8d}  {bar}")
    return "\n".join(lines)
