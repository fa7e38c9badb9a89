"""The ``parity-sim`` command: a synthetic parity-switching scan and its
grade."""

from __future__ import annotations

import sys

import numpy as np

from ._output import _dump_json, _emit, _fmt, _records
from .config import DeviceConfig
from .errors import ConfigError
from .parity import (
    _ROWS, ScanConfig, _RowDetection, _ScanSynthesis, scan_window,
    simulate_offset_charge, simulate_parity,
)


_PEAKS = ["pixel", "time_s", "count", "f1_GHz", "f2_GHz"]


# one row format per number of known peak positions; a NaN position is
# an empty cell
_PEAK_ROW_FORMATS = (
    "%d,%.10g,%d,,\n", "%d,%.10g,%d,%.10g,\n", "%d,%.10g,%d,%.10g,%.10g\n",
)


def _peaks_csv(starts: np.ndarray, counts: np.ndarray,
               positions: np.ndarray):
    """``_csv_table(_PEAKS, rows)`` of the detector arrays, one %-format
    per row, yielded a block of ``_ROWS`` rows at a time.  ``positions``
    ascend along each row with NaN last, as
    :func:`qpgap.parity.estimate_parity_lifetime` leaves them."""
    yield ",".join(_PEAKS) + "\n"
    known = np.count_nonzero(~np.isnan(positions), axis=1)
    for first in range(0, len(counts), _ROWS):
        block = slice(first, first + _ROWS)
        rows = zip(starts[block].tolist(), counts[block].tolist(),
                   positions[block].tolist(), known[block].tolist())
        yield "".join(
            _PEAK_ROW_FORMATS[n] % (index, start, count, *pair[:n])
            for index, (start, count, pair, n) in enumerate(rows, first)
        )


def run(args, config: DeviceConfig) -> int:
    seed = config.seed if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    settings = config.scan
    duration = args.duration

    parity_trace = simulate_parity(
        config.noise.gamma_parity_per_s, duration, seed=seed
    )
    charge_trace = simulate_offset_charge(
        config.noise, duration, seed=seed + 1, ng_initial=config.params.ng
    )
    f_min, f_max = scan_window(
        config.params, settings.linewidth_mhz, settings.pad_linewidths
    )
    scan_config = ScanConfig(
        f_min_ghz=f_min,
        f_max_ghz=f_max,
        n_freq=settings.n_freq,
        pixel_seconds=settings.pixel_seconds,
    )
    # every input error is raised here, before any output is written
    synthesis = _ScanSynthesis(
        config.params, parity_trace, charge_trace, scan_config,
        settings.linewidth_mhz, settings.snr, seed + 2,
    )
    n_pixels, freqs = synthesis.n_pixels, synthesis.frequencies_ghz
    starts = synthesis.pixel_starts_s
    detection = _RowDetection(freqs, n_pixels, settings.linewidth_mhz)
    # the scan is graded (and written) as it is made; only --svg keeps it
    # whole, for the heatmap, and otherwise every block reuses one buffer
    table = np.empty((n_pixels if args.svg else min(_ROWS, n_pixels),
                      len(freqs)))

    def graded_blocks():
        for first, rows in synthesis.blocks(table):
            detection.grade(first, rows)
            yield starts[first:first + len(rows)], rows

    blocks = graded_blocks()
    if args.format == "csv":
        # the array formatter is compiled for scan.csv alone
        from ._floatcsv import format_blocks

        header = ["time_s"] + [f"f_{_fmt(f)}" for f in freqs]
        _emit(args, "scan.csv", format_blocks(header, blocks))
    for _ in blocks:  # --format json grades the scan without writing it
        pass
    estimate = detection.verdict(
        synthesis.branch_freqs_ghz, synthesis.pixel_seconds
    )

    metadata = {
        **synthesis.metadata(),
        "config": config.name,
        "config_hash": config.source_hash,
        "gamma_parity_per_s": config.noise.gamma_parity_per_s,
        "gamma_parity_computed": config.gamma_parity_computed,
        "true_switch_count": parity_trace.switch_count,
        "verdict": estimate.describe(),
        "estimate": {
            "kind": estimate.kind,
            "seconds": estimate.seconds,
            "alternations": estimate.alternations,
            "two_peak_fraction": estimate.two_peak_fraction,
            "single_peak_fraction": estimate.single_peak_fraction,
        },
    }

    if args.format == "json":
        # NaN pads a row with fewer than two peaks; _dump_json writes null
        peak_rows = [
            [index, start, count, *positions]
            for index, (start, count, positions) in enumerate(zip(
                starts.tolist(), estimate.counts.tolist(),
                estimate.positions_ghz.tolist(),
            ))
        ]
        document = {**metadata, "peaks": _records(_PEAKS, peak_rows)}
        _emit(args, "scan_meta.json", _dump_json(document))
    else:
        _emit(args, "peaks.csv", _peaks_csv(
            starts, estimate.counts, estimate.positions_ghz
        ))
        _emit(args, "scan_meta.json", _dump_json(metadata))

    if args.svg:
        from . import svgplot

        svg = svgplot.heatmap(
            table.T, freqs, starts,
            "frequency (GHz)", "time (s)", f"{config.name} parity scan",
        )
        _emit(args, "scan.svg", svg)

    sys.stdout.write(estimate.describe() + "\n")
    return 0
