import numpy as np
import pytest

from qpgap import svgplot


def _reference_heatmap(matrix, x_values, y_values, x_label, y_label, title,
                       max_cells=400):
    """The heatmap with one fancy-indexed maximum per cell, kept as the
    reference that the one-pass downsampling must match byte for byte."""
    data = np.asarray(matrix, dtype=float)
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)

    def _bin(axis_len):
        bins = min(axis_len, max_cells)
        edges = np.linspace(0, axis_len, bins + 1).astype(int)
        return [np.arange(edges[i], edges[i + 1]) for i in range(bins)]

    x_groups = _bin(data.shape[0])
    y_groups = _bin(data.shape[1])
    reduced = np.empty((len(x_groups), len(y_groups)))
    for i, gx in enumerate(x_groups):
        block = data[gx]
        for j, gy in enumerate(y_groups):
            reduced[i, j] = block[:, gy].max()
    lo, hi = float(reduced.min()), float(reduced.max())
    span = hi - lo if hi > lo else 1.0

    parts, _, _ = svgplot._axes(
        float(x.min()), float(x.max()), float(y.min()), float(y.max()),
        x_label, y_label, title,
    )
    width = svgplot._WIDTH
    height = svgplot._HEIGHT
    margin = svgplot._MARGIN
    cell_w = (width - 2 * margin) / len(x_groups)
    cell_h = (height - 2 * margin) / len(y_groups)
    for i in range(len(x_groups)):
        for j in range(len(y_groups)):
            color = svgplot._color((reduced[i, j] - lo) / span)
            cx = margin + i * cell_w
            cy = height - margin - (j + 1) * cell_h
            parts.append(
                f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_w + 0.05:.2f}" '
                f'height="{cell_h + 0.05:.2f}" fill="{color}"/>'
            )
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


# (x length, y length, max_cells): axes at, below and above the cell cap,
# including lengths the cell count does not divide evenly
@pytest.mark.parametrize(
    "shape, max_cells",
    [
        ((2, 2), 400),
        ((3, 161), 400),
        ((12, 1001), 400),
        ((450, 12), 400),
        ((37, 5), 8),
        ((64, 48), 16),
        ((101, 7), 10),
    ],
)
def test_heatmap_matches_the_per_cell_reference(shape, max_cells):
    rng = np.random.default_rng(sum(shape) + max_cells)
    matrix = rng.normal(0.0, 0.05, size=shape)
    matrix[rng.integers(0, shape[0], 5), rng.integers(0, shape[1], 5)] += 1.0
    x = np.linspace(4.3, 4.5, shape[0])
    y = np.arange(shape[1]) * 0.2
    args = (matrix, x, y, "frequency (GHz)", "time (s)", "scan")
    expected = _reference_heatmap(*args, max_cells=max_cells)
    assert svgplot.heatmap(*args, max_cells=max_cells) == expected
    # the transposed view the CLI passes
    transposed = (np.ascontiguousarray(matrix.T).T,) + args[1:]
    assert svgplot.heatmap(*transposed, max_cells=max_cells) == expected


def test_heatmap_of_a_constant_matrix_matches_the_reference():
    matrix = np.full((9, 6), 0.25)
    args = (matrix, np.arange(9.0), np.arange(6.0), "x", "y", "flat")
    assert svgplot.heatmap(*args, max_cells=4) == _reference_heatmap(
        *args, max_cells=4
    )


def test_heatmap_of_one_row_widens_its_time_axis():
    # a one-pixel scan: every cell sits at one time, which the axis widens
    # by 1 as line_plot does
    matrix = np.linspace(0.0, 1.0, 7)[:, None]
    svg = svgplot.heatmap(matrix, np.linspace(4.3, 4.5, 7), np.array([0.2]),
                          "frequency (GHz)", "time (s)", "one pixel")
    axes, _, _ = svgplot._axes(4.3, 4.5, 0.2, 1.2, "frequency (GHz)",
                               "time (s)", "one pixel")
    assert svg.count("<rect") == 2 + 7
    assert "\n".join(axes) in svg
