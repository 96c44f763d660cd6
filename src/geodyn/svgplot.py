"""Minimal deterministic SVG line plots (fixed 800x600 canvas, no timestamps)."""

from __future__ import annotations

WIDTH, HEIGHT = 800, 600
MARGIN = 60


def _fmt(value: float) -> str:
    return repr(float(value))


def _scale(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def svg_lines(series, title: str = "") -> list[str]:
    """Lines of a standalone single-line SVG plot of (x, y) pairs.

    ``series`` is a sequence of at least two points; output is byte
    deterministic for identical inputs.
    """
    points = [(float(x), float(y)) for x, y in series]
    if len(points) < 2:
        raise ValueError("need at least 2 points to plot")
    x_lo, x_hi = _scale([p[0] for p in points])
    y_lo, y_hi = _scale([p[1] for p in points])

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    poly = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in points)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
    ]
    if title:
        lines.append(
            f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{title}</text>'
        )
    axis_labels = [
        (MARGIN, HEIGHT - MARGIN + 20, x_lo, "start"),
        (WIDTH - MARGIN, HEIGHT - MARGIN + 20, x_hi, "end"),
        (MARGIN - 8, HEIGHT - MARGIN, y_lo, "end"),
        (MARGIN - 8, MARGIN + 10, y_hi, "end"),
    ]
    for x, y, value, anchor in axis_labels:
        lines.append(
            f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="12">{value:.6g}</text>'
        )
    lines.append(
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    return lines


def emit_svg(series, path: str, title: str = "") -> None:
    """Write the ``svg_lines`` plot of ``series`` to the file ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(svg_lines(series, title)) + "\n")
