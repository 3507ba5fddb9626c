"""Plain-text rendering of tables and histograms.

The figure tests print the same rows/series the paper's figures
show; these helpers format them for terminal output so
``pytest tests/figures -s`` shows figure-shaped data.
"""

from __future__ import annotations

import typing as _t


def render_table(
    headers: _t.Sequence[str],
    rows: _t.Sequence[_t.Sequence[_t.Any]],
    title: str | None = None,
) -> str:
    """Format ``rows`` as a fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: list[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_histogram(
    counts: _t.Sequence[int],
    bucket: float,
    width: int = 40,
    title: str | None = None,
) -> str:
    """Vertical-ish histogram: one row per time bucket with counts."""
    lines: list[str] = []
    if title:
        lines.append(title)
    if not counts:
        return "\n".join(lines + ["(no data)"])
    top = max(counts) or 1
    for i, c in enumerate(counts):
        bar = "#" * int(round(width * c / top))
        lines.append(f"{i * bucket:7.1f}s | {bar} {c}")
    return "\n".join(lines)
