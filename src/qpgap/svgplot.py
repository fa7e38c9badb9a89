"""Dependency-free SVG rendering for scans and fit curves.

Deliberately minimal: linear axes, polyline series, and a grayscale-free
heatmap.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH = 720
_HEIGHT = 480
_MARGIN = 60
# The most heatmap cells per axis; a longer axis is downsampled.
_MAX_CELLS = 400

# Dark-blue to yellow ramp sampled at the ends and midpoint of viridis.
_RAMP = ((68, 1, 84), (33, 145, 140), (253, 231, 37))


def _color(value: float) -> str:
    v = min(max(value, 0.0), 1.0)
    if v < 0.5:
        a, b, frac = _RAMP[0], _RAMP[1], v * 2.0
    else:
        a, b, frac = _RAMP[1], _RAMP[2], (v - 0.5) * 2.0
    channels = [round(x + (y - x) * frac) for x, y in zip(a, b)]
    return f"rgb({channels[0]},{channels[1]},{channels[2]})"


def _colors(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """:func:`_color` of each value, array-wise: the distinct colors, and
    the index of each value's color among them.

    The channels take ``_color``'s float steps, and ``np.rint`` rounds
    half to even as ``round`` does, so the colors are the same.
    """
    v = np.clip(values, 0.0, 1.0)[..., None]
    low = v < 0.5
    frac = np.where(low, v * 2.0, (v - 0.5) * 2.0)
    ramp = np.array(_RAMP)
    a = np.where(low, ramp[0], ramp[1])
    b = np.where(low, ramp[1], ramp[2])
    channels = np.rint(a + (b - a) * frac).astype(int)
    keys, index = np.unique(channels @ [1 << 16, 1 << 8, 1],
                            return_inverse=True)
    palette = [f"rgb({k >> 16},{k >> 8 & 255},{k & 255})"
               for k in keys.tolist()]
    return palette, index.reshape(np.shape(values))


def color_for(index: int) -> str:
    """Distinct stroke color for a small series index."""
    return _color((index % 3) / 2.0)


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values from ``lo`` to ``hi``."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    magnitude = 10 ** math.floor(math.log10(raw))
    step = min(
        (m * magnitude for m in (1, 2, 5, 10)),
        key=lambda s: abs(s - raw),
    )
    first = math.ceil(lo / step) * step
    ticks = []
    tick = first
    while tick <= hi + step * 1e-9:
        ticks.append(tick)
        tick += step
    return ticks


def _range(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) of an axis, widened to (lo, lo + 1) when lo equals hi."""
    return (lo, hi) if hi != lo else (lo, lo + 1.0)


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title):
    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (
            _HEIGHT - 2 * _MARGIN
        )

    parts = [
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
    ]
    frame = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="black"/>'
    )
    parts.append(frame)
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.1f}" '
            f'y2="{_HEIGHT - _MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN + 18}" '
            f'text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{y:.1f}" x2="{_MARGIN}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{y_label}</text>'
    )
    return parts, sx, sy


def line_plot(
    series: list[tuple[np.ndarray, np.ndarray, str]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render (x, y, color) polyline series on shared linear axes."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x_lo, x_hi = _range(float(xs.min()), float(xs.max()))
    y_lo, y_hi = _range(float(ys.min()), float(ys.max()))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts, sx, sy = _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label, title)
    for x, y, color in series:
        points = " ".join(
            f"{sx(float(a)):.1f},{sy(float(b)):.1f}" for a, b in zip(x, y)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n{body}\n</svg>\n'
    )


def heatmap(
    matrix: np.ndarray,
    x_values: np.ndarray,
    y_values: np.ndarray,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render a matrix as colored cells, downsampling to ``_MAX_CELLS``
    (400) per axis.

    ``matrix`` is indexed [x, y]; downsampling takes the cell maximum so
    narrow spectroscopic peaks survive.
    """
    data = np.asarray(matrix, dtype=float)
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)

    def _starts(axis_len: int) -> np.ndarray:
        """First index of each cell; at most one cell per index, so the
        starts strictly increase and no cell is empty."""
        bins = min(axis_len, _MAX_CELLS)
        return np.linspace(0, axis_len, bins + 1).astype(int)[:-1]

    # the CLI passes a scan as [frequency, time]; reducing the long time
    # axis first keeps the intermediate array small
    reduced = np.maximum.reduceat(
        np.maximum.reduceat(data, _starts(data.shape[1]), axis=1),
        _starts(data.shape[0]),
        axis=0,
    )
    n_x, n_y = reduced.shape
    lo, hi = float(reduced.min()), float(reduced.max())
    if not math.isfinite(hi - lo):
        # no color for a non-finite cell, nor for the shades beside one
        raise ValueError("heatmap cells must be finite")
    span = hi - lo if hi > lo else 1.0

    parts, sx, sy = _axes(
        *_range(float(x.min()), float(x.max())),
        *_range(float(y.min()), float(y.max())),
        x_label,
        y_label,
        title,
    )
    cell_w = (_WIDTH - 2 * _MARGIN) / n_x
    cell_h = (_HEIGHT - 2 * _MARGIN) / n_y
    # each color, column x and row y is formatted once
    palette, index = _colors((reduced - lo) / span)
    rows = [
        f'" y="{_HEIGHT - _MARGIN - (j + 1) * cell_h:.2f}" '
        f'width="{cell_w + 0.05:.2f}" height="{cell_h + 0.05:.2f}" fill="'
        for j in range(n_y)
    ]
    for i, column in enumerate(index.tolist()):
        cell = f'<rect x="{_MARGIN + i * cell_w:.2f}'
        parts.extend([f'{cell}{row}{palette[k]}"/>'
                      for row, k in zip(rows, column)])
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n{body}\n</svg>\n'
    )
