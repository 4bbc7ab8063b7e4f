"""Minimal deterministic SVG emission.

Hand-rolled rather than delegated to a plotting stack so that byte-for-byte
reproducibility is trivial: fixed float formatting, no timestamps, no ids.
"""

from __future__ import annotations

import numpy as np

_W, _H, _PAD = 640, 480, 48
_COLORS = ("steelblue", "firebrick", "darkgreen", "goldenrod", "purple", "gray")


def _fmt(x):
    return f"{x:.6g}"


def _map_points(xs, ys, xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    sx = (_W - 2 * _PAD) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (_H - 2 * _PAD) / (y1 - y0 if y1 > y0 else 1.0)
    px = _PAD + (np.asarray(xs) - x0) * sx
    py = _H - _PAD - (np.asarray(ys) - y0) * sy
    return px, py


def _frame(title, xlim, ylim):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2*_PAD}" '
        f'height="{_H - 2*_PAD}" fill="none" stroke="black"/>',
        f'<text x="{_W//2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<text x="{_PAD}" y="{_H - 12}" font-family="monospace" '
        f'font-size="11">x: [{_fmt(xlim[0])}, {_fmt(xlim[1])}]   '
        f'y: [{_fmt(ylim[0])}, {_fmt(ylim[1])}]</text>',
    ]
    return parts


def polyline_svg(series, title=""):
    """SVG with one polyline per (x, y) series pair."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    span_x = (float(xs.min()), float(xs.max()))
    span_y = (float(ys.min()), float(ys.max()))
    if span_y[0] == span_y[1]:
        span_y = (span_y[0] - 1.0, span_y[1] + 1.0)
    parts = _frame(title, span_x, span_y)
    for i, (sx, sy) in enumerate(series):
        px, py = _map_points(sx, sy, span_x, span_y)
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}"
                       for a, b in zip(px.tolist(), py.tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{_COLORS[i % len(_COLORS)]}" stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode()


def histogram_svg(edges, counts, title=""):
    """SVG bar chart of a numpy histogram."""
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    span_x = (float(edges[0]), float(edges[-1]))
    span_y = (0.0, float(counts.max()) if counts.max() > 0 else 1.0)
    parts = _frame(title, span_x, span_y)
    for i, c in enumerate(counts):
        x0, _ = _map_points(edges[i], 0.0, span_x, span_y)
        x1, y1 = _map_points(edges[i + 1], c, span_x, span_y)
        _, ybase = _map_points(edges[i], 0.0, span_x, span_y)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" '
            f'width="{_fmt(max(0.5, x1 - x0 - 0.5))}" '
            f'height="{_fmt(max(0.0, ybase - y1))}" fill="steelblue"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode()
