"""Plain-text plotting helpers.

The experiment harnesses print their figures as ASCII scatter plots so
the reproduction needs no plotting stack; the raw series are always
returned alongside for anyone who wants to re-plot with matplotlib.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Point = Tuple[float, float]


def ascii_scatter(
    series: Dict[str, List[Point]],
    width: int = 72,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    markers: str = "ox+*#@%&",
    title: str = "",
) -> str:
    """Render named point series on one character grid.

    Each series gets the next marker from ``markers``; overlapping
    points show the marker of the series drawn last.  Returns the plot
    as a single string (legend + canvas + axis ranges).
    """
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        return "(no data)"
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend_parts = []
    # Cycle markers so a plot with more series than markers still shows
    # every series (markers then repeat).
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend_parts.append(f"{marker} = {name}")
        for x, y in points:
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(legend_parts))
    lines.append(f"{y_label}: [{y_min:.3g} .. {y_max:.3g}]")
    border = "+" + "-" * width + "+"
    lines.append(border)
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append(border)
    lines.append(f"{x_label}: [{x_min:.3g} .. {x_max:.3g}]")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table (left-aligned first column,
    right-aligned numerics)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    out_lines = []
    for row_index, row in enumerate(cells):
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]))
        out_lines.append("  ".join(parts))
        if row_index == 0:
            out_lines.append("  ".join("-" * w for w in widths))
    return "\n".join(out_lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
