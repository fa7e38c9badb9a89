"""The ``parity-sim`` command: a synthetic parity-switching scan and its
grade."""

from __future__ import annotations

import sys

import numpy as np

from .cli import _dump_json, _emit, _float_csv_chunks, _fmt, _records
from .config import DeviceConfig
from .errors import ConfigError
from .parity import (
    ScanConfig, estimate_parity_lifetime, scan_window, simulate_offset_charge,
    simulate_parity, synthesize_scan,
)


_PEAKS = ["pixel", "time_s", "count", "f1_GHz", "f2_GHz"]


# one row format per number of known peak positions; a NaN position is
# an empty cell
_PEAK_ROW_FORMATS = (
    "%d,%.10g,%d,,\n", "%d,%.10g,%d,%.10g,\n", "%d,%.10g,%d,%.10g,%.10g\n",
)


def _peaks_csv(starts: np.ndarray, counts: np.ndarray,
               positions: np.ndarray) -> str:
    """``_csv_table(_PEAKS, rows)`` of the detector arrays, one %-format
    per row.  ``positions`` ascend along each row with NaN last, as
    :func:`qpgap.parity.estimate_parity_lifetime` leaves them."""
    known = np.count_nonzero(~np.isnan(positions), axis=1).tolist()
    rows = zip(starts.tolist(), counts.tolist(), positions.tolist(), known)
    lines = [",".join(_PEAKS) + "\n"]
    lines += [
        _PEAK_ROW_FORMATS[n] % (index, start, count, *pair[:n])
        for index, (start, count, pair, n) in enumerate(rows)
    ]
    return "".join(lines)


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
    scan = synthesize_scan(
        config.params,
        parity_trace,
        charge_trace,
        scan_config,
        linewidth_mhz=settings.linewidth_mhz,
        snr=settings.snr,
        seed=seed + 2,
    )
    estimate = estimate_parity_lifetime(scan)

    metadata = {
        **scan.metadata(),
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
                scan.pixel_starts_s.tolist(), estimate.counts.tolist(),
                estimate.positions_ghz.tolist(),
            ))
        ]
        document = {**metadata, "peaks": _records(_PEAKS, peak_rows)}
        _emit(args, "scan_meta.json", _dump_json(document))
    else:
        header = ["time_s"] + [f"f_{_fmt(f)}" for f in scan.frequencies_ghz]
        table = np.column_stack([scan.pixel_starts_s, scan.amplitudes])
        _emit(args, "scan.csv", _float_csv_chunks(header, table))
        _emit(args, "peaks.csv", _peaks_csv(
            scan.pixel_starts_s, estimate.counts, estimate.positions_ghz
        ))
        _emit(args, "scan_meta.json", _dump_json(metadata))

    if args.svg:
        from . import svgplot

        svg = svgplot.heatmap(
            scan.amplitudes.T, scan.frequencies_ghz, scan.pixel_starts_s,
            "frequency (GHz)", "time (s)", f"{config.name} parity scan",
        )
        _emit(args, "scan.svg", svg)

    sys.stdout.write(estimate.describe() + "\n")
    return 0


