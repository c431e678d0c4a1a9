"""Plain-text table rendering for experiment reports.

Every experiment prints the same rows the paper's tables report; this
module renders them as aligned ASCII so results are readable in a terminal
and diffable in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt(cell: object, floatfmt: str) -> str:
    if isinstance(cell, float):
        return format(cell, floatfmt)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    floatfmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are formatted with ``floatfmt``; all other cells with ``str``.

    >>> print(format_table(["K", "load"], [[1, 4.0], [2, 2.5]]))
    K  load
    -  -----
    1  4.000
    2  2.500
    """
    str_rows = [[_fmt(c, floatfmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
