"""Minimal deterministic SVG charts: line plots and heatmaps.

No plotting dependency: the files are assembled from fixed templates with
%.6g number formatting, so identical inputs produce identical bytes. Axis
ranges always cover the data extrema.
"""

from __future__ import annotations

import math

from .container import atomic_write
from .errors import ContractError

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _finite_or_raise(values, what):
    vals = [float(v) for v in values]
    if not vals:
        raise ContractError(f"{what}: no data")
    if not all(math.isfinite(v) for v in vals):
        raise ContractError(f"{what}: non-finite data")
    return vals


def line_chart(series: dict[str, tuple[list[float], list[float]]], path, *,
               title: str = "", x_label: str = "", y_label: str = "",
               y_log: bool = False) -> None:
    """Write a multi-series line chart.

    ``series`` maps a legend name to (x values, y values). With
    ``y_log``, all y values must be positive and the axis is log-scaled.
    """
    if not series:
        raise ContractError("line_chart needs at least one series")
    all_x, all_y = [], []
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ContractError(f"series {name!r}: x/y length mismatch")
        all_x.extend(_finite_or_raise(xs, name))
        all_y.extend(_finite_or_raise(ys, name))
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_log:
        if y_lo <= 0:
            raise ContractError("log-scale chart needs positive values")
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        yv = math.log10(y) if y_log else y
        return _MARGIN_T + plot_h - (yv - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    lo_label, hi_label = (10.0**y_lo, 10.0**y_hi) if y_log else (y_lo, y_hi)
    parts.append(
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + plot_h}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{_fmt(lo_label)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 10}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{_fmt(hi_label)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{_fmt(x_lo)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L + plot_w}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{_fmt(x_hi)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h // 2})">{y_label}</text>')
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = _MARGIN_T + 14 * idx + 4
        parts.append(f'<rect x="{_MARGIN_L + plot_w - 130}" y="{ly}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 115}" y="{ly + 9}" '
                     f'font-size="11" font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    atomic_write(path, ("\n".join(parts) + "\n").encode("utf-8"))


def heatmap(matrix, path, *, title: str = "") -> None:
    """Write a magnitude heatmap of a matrix (white = 0, dark red = max)."""
    rows = [list(map(float, row)) for row in matrix]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ContractError("heatmap needs a non-empty rectangular matrix")
    _finite_or_raise([v for row in rows for v in row], "heatmap")
    n_rows, n_cols = len(rows), len(rows[0])
    peak = max(abs(v) for row in rows for v in row)
    side = 360
    cell = side / max(n_rows, n_cols)
    x0, y0 = 60, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{x0 + side + 40}" '
        f'height="{y0 + side + 30}" viewBox="0 0 {x0 + side + 40} {y0 + side + 30}">',
        f'<rect width="{x0 + side + 40}" height="{y0 + side + 30}" fill="white"/>',
        f'<text x="{x0 + side / 2:.0f}" y="28" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<text x="{x0 + side + 6:.0f}" y="{y0 + 10}" font-size="11" '
        f'font-family="sans-serif">max {_fmt(peak)}</text>',
    ]
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            frac = 0.0 if peak == 0 else min(1.0, abs(val) / peak)
            red = 255
            other = int(round(255 * (1.0 - frac)))
            parts.append(
                f'<rect x="{_fmt(x0 + j * cell)}" y="{_fmt(y0 + i * cell)}" '
                f'width="{_fmt(cell)}" height="{_fmt(cell)}" '
                f'fill="rgb({red},{other},{other})"/>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{_fmt(cell * n_cols)}" '
                 f'height="{_fmt(cell * n_rows)}" fill="none" stroke="black"/>')
    parts.append("</svg>")
    atomic_write(path, ("\n".join(parts) + "\n").encode("utf-8"))
