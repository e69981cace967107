"""Minimal SVG polyline plots, no plotting dependency.

Good enough for post-hoc inspection of simulation traces: one axes box,
a handful of labelled series, linear scales.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .files import open_fresh

_COLORS = ("#1f6fb2", "#d2442c", "#3d9948", "#8a56b0", "#b08c00")

_WIDTH, _HEIGHT = 760, 380
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 42
_MAX_POINTS = 2400


def _decimate(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if xs.size <= _MAX_POINTS:
        return xs, ys
    stride = int(np.ceil(xs.size / _MAX_POINTS))
    idx = np.arange(0, xs.size, stride)
    if idx[-1] != xs.size - 1:
        idx = np.append(idx, xs.size - 1)
    return xs[idx], ys[idx]


def write_svg_plot(
    path: Union[str, Path],
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
) -> None:
    """Write labelled polylines to an SVG file.

    ``series`` holds (name, x-array, y-array) triples sharing one time axis.
    """
    if not series:
        raise ValueError("at least one series required")
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t [s]</text>',
    ]
    for gx in np.linspace(x_lo, x_hi, 6):
        lines.append(
            f'<text x="{sx(gx):.1f}" y="{_MARGIN_T + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{gx:.3g}</text>'
        )
    for gy in np.linspace(y_lo, y_hi, 6):
        lines.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(gy):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" dominant-baseline="middle">{gy:.3g}</text>'
        )

    for idx, (name, xs, ys) in enumerate(series):
        xs, ys = _decimate(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = _COLORS[idx % len(_COLORS)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        lx = _MARGIN_L + plot_w - 8
        ly = _MARGIN_T + 16 + 14 * idx
        lines.append(
            f'<text x="{lx}" y="{ly}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{name}</text>'
        )

    lines.append("</svg>")
    with open_fresh(path) as fh:
        fh.write("\n".join(lines) + "\n")
