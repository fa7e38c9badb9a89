"""The output helpers every command shares: CSV cells and tables, strict
JSON, writing to ``--out`` or stdout, and SVG line plots."""

from __future__ import annotations

import json
import os
import sys

import numpy as np


def _fmt(value) -> str:
    """Render a scalar for CSV output."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {key: _json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(val) for val in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(val) for val in obj.tolist()]
    return obj


def _dump_json(document: dict) -> str:
    """Strict JSON text: non-finite floats are written as null."""
    text = json.dumps(
        _json_ready(document), indent=2, sort_keys=True, allow_nan=False
    )
    return text + "\n"


def _emit(args, filename: str, chunks) -> None:
    """Write text to ``--out/filename``, or to stdout without ``--out``.

    ``chunks`` is one string or an iterable of strings, written in order;
    to a file it may instead be an iterable of bytes.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if args.out is None:
        sys.stdout.writelines(chunks)
        return
    chunks = iter(chunks)
    head = next(chunks, "")
    mode = "wb" if isinstance(head, bytes) else "w"
    with open(os.path.join(args.out, filename), mode) as handle:
        handle.write(head)
        handle.writelines(chunks)


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _records(header: list[str], rows: list[list]) -> list[dict]:
    """The JSON form of a table: one object per row, keyed by column."""
    return [dict(zip(header, row)) for row in rows]


def _plot(args, filename: str, title: str, x_label: str, y_label: str,
          *curves):
    """Write (x, y) curves as a line plot; curve i gets ``color_for(2 i)``."""
    from . import svgplot

    series = [(x, y, svgplot.color_for(2 * i))
              for i, (x, y) in enumerate(curves)]
    _emit(args, filename, svgplot.line_plot(series, x_label, y_label, title))
