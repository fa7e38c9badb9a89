"""Command line interface.

Subcommands:

* ``spectrum``    transition frequencies and charge dispersion vs offset charge
* ``qp``          quasiparticle densities, decay rates, and gap-profile verdicts
* ``parity-sim``  synthesize a parity-switching spectroscopy scan and grade it
* ``fit``         fit temperature-dependent T1 or T2 data

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for
numerical failure.  Output is deterministic for a fixed config and seed;
no timestamps are written.

This module holds the parser, :func:`main` and :func:`entry`, the process
entry of ``python -m qpgap.cli`` and the ``qpgap`` script.  Each
command's body and tables are a private module (``_spectrum``, ``_qp``,
``_parity_sim``, ``_fit``) that ``main`` imports for that command alone;
the output helpers they share are in ``_output``.  README's "Import
layout" lists the modules each command loads.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # before the imports below, which reach numpy through config: see entry
    gc.disable()

import argparse
import importlib
import math
import os
import sys

from . import __version__
from .config import load_device_config
from .errors import ConfigError, ConvergenceError, QpgapError


# The most points --ng-points or --t-points accepts.  A spectrum point
# costs two eigensolves (5000 points take about 1 s), so the cap keeps a
# run near 20 s.
MAX_GRID_POINTS = 100_000


def _prepare_out(args) -> None:
    """Check the flags and create ``--out``, before any work."""
    if args.command == "fit" and args.kind == "t1" and args.t1_data is not None:
        raise ConfigError("--t1-data applies to fit t2 only")
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


def _columns() -> int:
    """The terminal width ``shutil.get_terminal_size`` reports.

    COLUMNS when it is a positive integer, else the width of the terminal
    on stdout, else 80: shutil's rule for the columns, without importing
    shutil, which loads fnmatch and the zlib, bz2 and lzma modules.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout, at the width argparse would take.

    argparse makes a formatter for every argument it adds, and without a
    width each one imports shutil to measure the terminal.
    """

    def __init__(self, prog):
        super().__init__(prog, width=_columns() - 2)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 2 as ``error: <message>``.

    Its subparsers are ``_Parser``s too, and all of them lay out help with
    :class:`_Formatter`.
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(**kwargs)

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


def entry():
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    A command is one short process, and CPython's cyclic garbage collector
    only costs it time: it makes collection passes while numpy imports,
    and interpreter shutdown collects over every module again, even with
    the collector disabled.  So the collector is off while the command
    runs (from before the imports under ``python -m qpgap.cli``), and
    ``gc.freeze`` moves every object to the permanent generation before
    exit, which shutdown's collections skip.  ``sys.exit`` still flushes
    the streams and runs ``atexit``.  In-process callers use :func:`main`,
    which leaves the collector alone.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
