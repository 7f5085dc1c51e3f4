"""Plain-text table rendering in the paper's style."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render an aligned ASCII table.

    Floats use ``float_format``; everything else is ``str()``-ed.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
