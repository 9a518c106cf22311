"""Static SVG line charts for experiment results, no plotting deps."""

from __future__ import annotations

import math
import warnings

from udnsync.harness import ResultRow

WIDTH, HEIGHT = 640, 420
MARGIN = dict(left=70, right=30, top=30, bottom=55)
SERIES = (("t_sync_noma", "NOMA", "#1f77b4"),
          ("t_sync_oma", "OMA", "#d62728"))
YLABEL = "total synchronization time (s)"


class PlotError(ValueError):
    pass


def _points(rows, field):
    pts = []
    for row in rows:
        x, y = row.sweep_value, getattr(row, field)
        if not (math.isfinite(x) and math.isfinite(y)):
            warnings.warn(f"skipping non-finite point in series {field} "
                          f"at sweep value {x!r}")
            continue
        pts.append((x, y))
    return pts


def _scale(lo, hi):
    if hi == lo:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def emit_plot(rows: list[ResultRow], path,
              xlabel: str = "sweep value") -> None:
    """Render both access schemes' totals versus the swept value."""
    if len(rows) < 2:
        raise PlotError("need at least 2 rows to draw a line chart")
    series = {name: _points(rows, field) for field, name, _ in SERIES}
    all_pts = [p for pts in series.values() for p in pts]
    if len(all_pts) < 2:
        raise PlotError("not enough finite points to plot")
    x0, x1 = _scale(min(p[0] for p in all_pts), max(p[0] for p in all_pts))
    y0, y1 = _scale(min(p[1] for p in all_pts), max(p[1] for p in all_pts))
    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def sx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>',
        f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-size="14">{xlabel}</text>',
        f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">'
        f'{YLABEL}</text>',
    ]
    # axis ticks: ends plus midpoint, enough to read the scale
    for frac in (0.0, 0.5, 1.0):
        xv, yv = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{py0 + 18}" '
                     f'text-anchor="middle" font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{px0 - 6}" y="{sy(yv):.1f}" '
                     f'text-anchor="end" font-size="11">{yv:.4g}</text>')
    for i, (field, name, color) in enumerate(SERIES):
        pts = series[name]
        if not pts:
            continue
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
                         f'r="3" fill="{color}"/>')
        ly = MARGIN["top"] + 16 * (i + 1)
        parts.append(f'<line x1="{px1 - 110}" y1="{ly}" x2="{px1 - 86}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{px1 - 80}" y="{ly + 4}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
