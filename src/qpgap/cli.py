"""Command line interface.

Subcommands:

* ``spectrum``    transition frequencies and charge dispersion vs offset charge
* ``qp``          quasiparticle densities, decay rates, and gap-profile verdicts
* ``parity-sim``  synthesize a parity-switching spectroscopy scan and grade it
* ``fit``         fit temperature-dependent T1 or T2 data

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for
numerical failure.  Output is deterministic for a fixed config and seed;
no timestamps are written.

This module holds the output helpers, the parser and :func:`main`.  Each
command's body and tables are a private module (``_spectrum``, ``_qp``,
``_parity_sim``, ``_fit``) that ``main`` imports for that command alone,
with the physics it runs:

* every command loads the config and its records (``config``,
  ``device``, ``units``, ``errors``, ``_record``);
* ``spectrum``, ``qp`` and ``parity-sim`` load ``transmon``;
* ``qp`` alone loads ``quasiparticles``, and ``qp`` and ``fit`` load
  ``thermal`` and the root finder of ``numerics``;
* ``parity-sim`` alone loads ``parity``, and ``_floatcsv`` for
  ``scan.csv``;
* ``fit`` alone loads ``fitting``, ``fit t2`` alone its T2* model
  (``_dephasing``), and ``transmon`` only for a chi shift the config
  does not override;
* a config given as frequency targets loads the (EJ, EC) inversion
  (``_inversion``), a config error the source-line finder (``_lines``),
  and ``--svg`` loads ``svgplot``.

So a cold run loads no module it does not use.  Output directories and
files are handled through ``os.path`` and the config hash through the
interpreter's own sha256 module, so no command but ``parity-sim``
(whose ``numpy.random`` needs it) loads ``hashlib``, and none imports
``pathlib``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import DeviceConfig, load_device_config
from .errors import ConfigError, ConvergenceError, QpgapError


# Rows of a float table formatted and written at a time.  The work
# arrays take about 130 bytes a cell (0.7 MB for 32 rows of the 162-column
# scan), and each block makes three bytes objects of about 16 bytes a
# cell.  At 64 rows those were 146-166 KB each, which glibc maps and
# returns to the system, so every block faulted them in again: a cold
# 1000 s 3P parity-sim took 12.5k minor page faults, and 6.1k at 32 rows,
# where they are reused from the heap.  Warm and in-process, 32 rows
# format the 5000-row scan about 6 % slower than 64.
_CSV_ROWS = 32

# The most points --ng-points or --t-points accepts.  A spectrum point
# costs two eigensolves (5000 points take about 1 s), so the cap keeps a
# run near 20 s.
MAX_GRID_POINTS = 100_000


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


def _float_csv_chunks(header: list[str], blocks):
    """``_csv_table`` of a float table as bytes, ``_CSV_ROWS`` rows at a
    time.

    ``blocks`` yields the table as (first column, other columns) pairs of
    arrays, in row order.  :func:`qpgap._floatcsv.format_blocks` gives the
    same bytes as ``_csv_table`` from array operations; a few rows at a
    time keep its work arrays and text small.
    """
    from ._floatcsv import format_blocks

    yield (",".join(header) + "\n").encode()
    yield from format_blocks(blocks, _CSV_ROWS)


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


def _resolve_chi_kappa(config: DeviceConfig) -> tuple[float, float]:
    chi = config.chi_override_mhz
    if chi is None:
        from .transmon import chi_shift

        chi = chi_shift(config.params, config.cavity)
    kappa = config.kappa_override_mhz
    if kappa is None:
        kappa = config.cavity.kappa_mhz
    return chi, kappa


# -------------------------------------------------------------------- main


def _prepare_out(args) -> None:
    """Check the output flags and create ``--out``, before any work."""
    if args.out is None:
        if args.svg:
            raise ConfigError("--svg requires --out")
        if args.command == "parity-sim" and args.format == "csv":
            raise ConfigError("csv scan output requires --out")
        return
    try:
        # an empty --out names the working directory
        os.makedirs(args.out or os.curdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 2 as ``error: <message>``."""

    def error(self, message):
        raise ConfigError(message)


def _positive(cast, limit=math.inf):
    """An argparse type: ``cast`` the text and require 0 < value <= limit.

    The value must also be finite.
    """

    def parse(text: str):
        value = cast(text)
        if not 0 < value < math.inf:
            raise ValueError(text)
        if value > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit}, got {value}"
            )
        return value

    parse.__name__ = f"positive {cast.__name__}"
    return parse


def _add_common(parser):
    parser.add_argument("config", help="device config JSON file")
    parser.add_argument(
        "--out", help="output directory (default: stdout)"
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    parser.add_argument(
        "--svg", action="store_true", help="also write an SVG plot (needs --out)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpgap",
        description="transmon spectra, quasiparticle rates, and parity scans "
        "for gap-engineered devices",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    spectrum = subparsers.add_parser(
        "spectrum", help="transition frequencies vs offset charge"
    )
    _add_common(spectrum)
    spectrum.add_argument(
        "--ng-points", type=_positive(int, MAX_GRID_POINTS), default=26,
        help="offset-charge grid points on [0, 0.5] (default 26, at most "
        f"{MAX_GRID_POINTS})",
    )

    qp = subparsers.add_parser(
        "qp", help="quasiparticle rates and gap-profile verdicts"
    )
    _add_common(qp)
    qp.add_argument("--t-min", type=_positive(float), default=0.02,
                    help="grid start in K (default 0.02)")
    qp.add_argument("--t-max", type=_positive(float), default=0.4,
                    help="grid end in K (default 0.4)")
    qp.add_argument("--t-points", type=_positive(int, MAX_GRID_POINTS),
                    default=39,
                    help=f"grid size (default 39, at most {MAX_GRID_POINTS})")

    parity = subparsers.add_parser(
        "parity-sim", help="synthesize and grade a parity-switching scan"
    )
    _add_common(parity)
    parity.add_argument(
        "--duration", type=_positive(float), default=10.0,
        help="scan duration in seconds (default 10)",
    )
    parity.add_argument(
        "--seed", type=int, default=None,
        help="override the config seed",
    )

    fit = subparsers.add_parser(
        "fit", help="fit temperature-dependent coherence data"
    )
    fit.add_argument("kind", choices=("t1", "t2"),
                     help="which dataset the CSV holds")
    fit.add_argument("data", help="CSV with T_K and value_us or rate_per_s")
    _add_common(fit)
    fit.add_argument(
        "--t1-data", default=None,
        help="T1 CSV used to pin the T1 contribution of a t2 fit",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _prepare_out(args)
        config = load_device_config(args.config)
        command = importlib.import_module(
            f"{__package__}._{args.command.replace('-', '_')}"
        )
        code = command.run(args, config)
        sys.stdout.flush()  # a full or closed stdout fails here, not at exit
        return code
    except QpgapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, ConvergenceError) else 2
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself failed: drop what it still holds
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 2


if __name__ == "__main__":
    # ``python -m qpgap.cli`` runs this file as __main__.  The command
    # modules import the output helpers from qpgap.cli; registering this
    # module under that name saves compiling the file a second time.
    if vars(sys.modules[__name__]) is globals():
        sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
