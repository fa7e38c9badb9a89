"""Command line interface.

Subcommands:

* ``spectrum``    transition frequencies and charge dispersion vs offset charge
* ``qp``          quasiparticle densities, decay rates, and gap-profile verdicts
* ``parity-sim``  synthesize a parity-switching spectroscopy scan and grade it
* ``fit``         fit temperature-dependent T1 or T2 data

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for
numerical failure.  Output is deterministic for a fixed config and seed;
no timestamps are written.

Every command loads the config, and with it ``transmon`` and
``quasiparticles``.  ``parity-sim`` alone imports ``parity``, ``fit``
alone ``fitting``, and ``svgplot`` is imported only for ``--svg``, so a
cold run loads no module it does not use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import DeviceConfig, load_device_config
from .errors import (
    ConfigError,
    ConvergenceError,
    NearResonanceError,
    QpgapError,
)
from .quasiparticles import (
    barrier_adequate,
    diffusion_length,
    nqp_decay_rate,
    parity_rate_model,
    thermal_crossover,
    thermal_qp_fraction,
    trap_adequate,
    volume_density,
    x_qp_from_rate,
)
from .transmon import (
    charge_dispersion,
    chi_shift,
    eigenspectrum,
    resonator_dispersion,
)
from .units import kelvin_to_ev, kelvin_to_ghz


# Rows of a float table formatted and written at a time.
_CSV_ROWS = 256

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

    ``chunks`` is one string or an iterable of strings, written in order.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(args.out / filename, "w") as handle:
            handle.writelines(chunks)


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _float_csv_chunks(header: list[str], table: np.ndarray):
    """``_csv_table`` of a float array in blocks of ``_CSV_ROWS`` rows.

    :func:`qpgap._floatcsv.format_blocks` gives the same bytes as
    ``_csv_table`` from array operations; a block at a time keeps one
    block's work arrays and text alive, not the whole table's.
    """
    from ._floatcsv import format_blocks

    yield ",".join(header) + "\n"
    yield from format_blocks(table, _CSV_ROWS)


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
        chi = chi_shift(config.params, config.cavity)
    kappa = config.kappa_override_mhz
    if kappa is None:
        kappa = config.cavity.kappa_mhz
    return chi, kappa


# ---------------------------------------------------------------- spectrum

_SPECTRUM_GRID = [
    "ng", "f_ge_GHz", "f_ef_GHz", "f_ge_odd_GHz", "parity_splitting_GHz",
]


def _cmd_spectrum(args, config: DeviceConfig) -> int:
    params = config.params
    ng_grid = np.linspace(0.0, 0.5, args.ng_points)

    grid = []
    for ng in ng_grid:
        spectrum = eigenspectrum(params.with_ng(ng), levels=3)
        f_even_ge = spectrum.transition(0, 1)
        f_even_ef = spectrum.transition(1, 2)
        f_odd_ge = eigenspectrum(
            params.with_ng(ng + 0.5), levels=2
        ).transition(0, 1)
        grid.append(
            [ng, f_even_ge, f_even_ef, f_odd_ge, abs(f_even_ge - f_odd_ge)]
        )

    eps_ge = charge_dispersion(params, "ge")
    eps_ef = charge_dispersion(params, "ef")
    try:
        chi, _ = _resolve_chi_kappa(config)
    except NearResonanceError:
        chi = None
    try:
        pull = resonator_dispersion(params, config.cavity)
    except NearResonanceError:
        pull = None
    summary = {
        "EJ_GHz": params.EJ,
        "EC_GHz": params.EC,
        "EJ_over_EC": params.EJ / params.EC,
        "f_ge_ng0_GHz": grid[0][1],
        "f_ef_ng0_GHz": grid[0][2],
        "anharmonicity_GHz": grid[0][2] - grid[0][1],
        "eps_ge_GHz": eps_ge,
        "eps_ef_GHz": eps_ef,
        "chi_MHz": chi,
        "resonator_dispersion_kHz": pull,
    }

    if args.format == "json":
        document = {
            "config": config.name,
            "config_hash": config.source_hash,
            "grid": _records(_SPECTRUM_GRID, grid),
            "summary": summary,
        }
        _emit(args, "spectrum.json", _dump_json(document))
    else:
        rows = [["grid", *row, None, None] for row in grid]
        rows.append(["summary", *[None] * len(_SPECTRUM_GRID), eps_ge, eps_ef])
        header = ["kind", *_SPECTRUM_GRID, "eps_ge_GHz", "eps_ef_GHz"]
        _emit(args, "spectrum.csv", _csv_table(header, rows))
        if args.out is None:
            for key, value in summary.items():
                sys.stdout.write(f"# {key} = {_fmt(value)}\n")

    if args.svg:
        _plot(args, "spectrum.svg", f"{config.name} parity branches",
              "offset charge ng", "f_ge (GHz)",
              (ng_grid, [row[1] for row in grid]),
              (ng_grid, [row[3] for row in grid]))
    return 0


# ---------------------------------------------------------------------- qp

_QP_GRID = ["T_K", "x_qp", "gamma1_per_s", "T1_us", "parity_rate_per_s"]


def _cmd_qp(args, config: DeviceConfig) -> int:
    env = config.env
    profile = config.profile
    params = config.params
    delta_k = profile.junction_delta_k
    delta_ghz = kelvin_to_ghz(delta_k)
    delta_ev = kelvin_to_ev(delta_k)
    f_ge = eigenspectrum(params, levels=2).transition(0, 1)

    temperatures = np.linspace(args.t_min, args.t_max, args.t_points)
    grid = []
    for t_kelvin in temperatures:
        x_total = thermal_qp_fraction(t_kelvin, delta_k, x_nqp=env.x_nqp)
        gamma1 = nqp_decay_rate(params.EJ, params.EC, f_ge, delta_ghz, x_total)
        parity = parity_rate_model(profile, env, t_kelvin=t_kelvin)
        grid.append(
            [t_kelvin, x_total, gamma1,
             1e6 / gamma1 if gamma1 > 0 else None, parity]
        )

    summary: dict = {
        "config": config.name,
        "config_hash": config.source_hash,
        "delta_junction_K": delta_k,
        "delta_junction_GHz": delta_ghz,
        "f_ge_GHz": f_ge,
        "x_nqp": env.x_nqp,
        "crossover_K": thermal_crossover(env.x_nqp, delta_k),
        "n_nqp_per_um3": volume_density(env.x_nqp, env.nu0_per_ev_um3,
                                        delta_ev),
    }
    if "T1_us" in config.measured:
        gamma_measured = 1e6 / config.measured["T1_us"]
        x_inferred = x_qp_from_rate(
            gamma_measured, params.EJ, params.EC, f_ge, delta_ghz
        )
        summary["T1_measured_us"] = config.measured["T1_us"]
        summary["x_qp_from_T1"] = x_inferred
        summary["n_from_T1_per_um3"] = volume_density(
            x_inferred, env.nu0_per_ev_um3, delta_ev
        )

    summary["diffusion_length_at_0p5K_um"] = diffusion_length(0.5, env)
    verdict = barrier_adequate(profile, env)
    trap = trap_adequate(profile, env)
    summary["barrier_protected"] = verdict.adequate
    summary["trap_adequate"] = trap.adequate
    for side, side_verdict in (("left", verdict.left), ("right", verdict.right)):
        summary[f"barrier_{side}_step_K"] = side_verdict.delta_delta_k
        summary[f"barrier_{side}_margin"] = side_verdict.margin
    for side, side_verdict in (("left", trap.left), ("right", trap.right)):
        summary[f"trap_{side}_margin"] = side_verdict.margin
    summary["parity_rate_base_per_s"] = parity_rate_model(
        profile, env, t_kelvin=args.t_min
    )

    if args.format == "json":
        document = {"grid": _records(_QP_GRID, grid), "summary": summary}
        _emit(args, "qp.json", _dump_json(document))
    else:
        summary_text = _csv_table(["key", "value"], list(summary.items()))
        if args.out is None:  # a blank line between the two tables
            summary_text += "\n"
        _emit(args, "qp_summary.csv", summary_text)
        _emit(args, "qp_grid.csv", _csv_table(_QP_GRID, grid))

    if args.svg:
        _plot(args, "qp.svg", f"{config.name} qp rates",
              "temperature (K)", "log10 rate (1/s)",
              (temperatures, [np.log10(max(row[2], 1e-30)) for row in grid]),
              (temperatures, [np.log10(max(row[4], 1e-30)) for row in grid]))
    return 0


# -------------------------------------------------------------- parity-sim

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


def _cmd_parity_sim(args, config: DeviceConfig) -> int:
    from .parity import (
        ScanConfig,
        estimate_parity_lifetime,
        scan_window,
        simulate_offset_charge,
        simulate_parity,
        synthesize_scan,
    )

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


# --------------------------------------------------------------------- fit

_RESIDUALS = [
    "T_K", "rate_per_s", "model_per_s", "residual_per_s", "sigma_per_s",
]


def _cmd_fit(args, config: DeviceConfig) -> int:
    from .fitting import (
        dataseries_from_csv,
        fit_t1_vs_temperature,
        fit_t2_vs_temperature,
        pure_dephasing_from_echo,
    )

    if args.kind == "t1":
        data = dataseries_from_csv(args.data, kind="t1")
        result = fit_t1_vs_temperature(data)
    else:
        data = dataseries_from_csv(args.data, kind="t2star")
        chi, kappa = _resolve_chi_kappa(config)
        if args.t1_data is not None:
            t1_fit = fit_t1_vs_temperature(
                dataseries_from_csv(args.t1_data, kind="t1")
            )

            def t1_model(t_kelvin: float) -> float:
                return 1.0 / float(t1_fit.rate(t_kelvin))

        elif "T1_us" in config.measured:
            t1_seconds = config.measured["T1_us"] * 1e-6

            def t1_model(t_kelvin: float) -> float:
                return t1_seconds

        else:
            raise ConfigError(
                "t2 fit needs --t1-data or measured.T1_us in the config"
            )
        result = fit_t2_vs_temperature(
            data, chi_mhz=chi, kappa_mhz=kappa,
            nu_r_ghz=config.cavity.nu_r_ghz, t1_model=t1_model,
        )

    report = {**result.to_report(), "config": config.name,
              "config_hash": config.source_hash}
    if (
        args.kind == "t2"
        and "T2star_us" in config.measured
        and "T2echo_us" in config.measured
    ):
        report["derived"]["pure_dephasing_from_echo_per_s"] = (
            pure_dephasing_from_echo(
                config.measured["T2star_us"] * 1e-6,
                config.measured["T2echo_us"] * 1e-6,
            )
        )

    model_rates = result.rate(data.t_kelvin)
    rates, rate_sigmas = data.rates()
    if rate_sigmas is None:  # an empty cell, or null
        rate_sigmas = [None] * len(data)
    residual_rows = [
        [t, rate, model, rate - model, sigma]
        for t, rate, model, sigma in zip(
            data.t_kelvin, rates, model_rates, rate_sigmas
        )
    ]

    stem = f"fit_{args.kind}"
    if args.format == "json":
        document = {**report, "residuals": _records(_RESIDUALS, residual_rows)}
        _emit(args, f"{stem}.json", _dump_json(document))
    else:
        lines = [f"model = {report['model']}"]
        for name in result.param_names:
            sigma = report["sigmas"][name]
            sigma_text = _fmt(sigma) if np.isfinite(sigma) else "n/a"
            value = _fmt(report["params"][name])
            lines.append(f"{name} = {value} +- {sigma_text}")
        tail = {key: report[key] for key in ("ssr", "iterations", "n_points")}
        for key, value in {**report["derived"], **tail}.items():
            lines.append(f"{key} = {_fmt(value)}")
        _emit(args, f"{stem}.txt", "".join(line + "\n" for line in lines))
        if args.out is not None:
            _emit(args, f"{stem}_residuals.csv",
                  _csv_table(_RESIDUALS, residual_rows))

    if args.svg:
        t_fine = np.linspace(float(data.t_kelvin.min()),
                             float(data.t_kelvin.max()), 200)
        _plot(args, f"{stem}.svg", f"{config.name} {args.kind} fit",
              "temperature (K)", "rate (1/s)",
              (data.t_kelvin, rates), (t_fine, result.rate(t_fine)))
    return 0


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
        args.out.mkdir(parents=True, exist_ok=True)
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
        "--out", type=Path, help="output directory (default: stdout)"
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
    spectrum.set_defaults(func=_cmd_spectrum)

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
    qp.set_defaults(func=_cmd_qp)

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
    parity.set_defaults(func=_cmd_parity_sim)

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
    fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _prepare_out(args)
        code = args.func(args, load_device_config(args.config))
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
    sys.exit(main())
