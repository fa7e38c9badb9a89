"""Command line interface.

Subcommands:

* ``spectrum``    transition frequencies and charge dispersion vs offset charge
* ``qp``          quasiparticle densities, decay rates, and gap-profile verdicts
* ``parity-sim``  synthesize a parity-switching spectroscopy scan and grade it
* ``fit``         fit temperature-dependent T1 or T2 data

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for
numerical failure.  Output is deterministic for a fixed config and seed;
no timestamps are written.
"""

from __future__ import annotations

import argparse
import json
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
from .fitting import (
    dataseries_from_csv,
    fit_t1_vs_temperature,
    fit_t2_vs_temperature,
    pure_dephasing_from_echo,
    t1_rate_model,
    t2_rate_model,
)
from .parity import (
    ScanConfig,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from .quasiparticles import (
    barrier_adequate,
    crossover_temperature,
    diffusion_length,
    nqp_decay_rate,
    parity_rate_model,
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
from . import svgplot


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


def _write_or_print(text: str, out_dir: Path | None, filename: str):
    if out_dir is None:
        sys.stdout.write(text)
    else:
        (out_dir / filename).write_text(text)


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _resolve_chi_kappa(config: DeviceConfig) -> tuple[float, float]:
    chi = config.chi_override_mhz
    if chi is None:
        chi = chi_shift(config.params, config.cavity)
    kappa = config.kappa_override_mhz
    if kappa is None:
        kappa = config.cavity.kappa_mhz
    return chi, kappa


# ---------------------------------------------------------------- spectrum


def _cmd_spectrum(args) -> int:
    config = load_device_config(args.config)
    params = config.params
    ng_grid = np.linspace(0.0, 0.5, args.ng_points)

    rows = []
    for ng in ng_grid:
        spectrum = eigenspectrum(params.with_ng(ng), levels=3)
        f_even_ge = spectrum.transition(0, 1)
        f_even_ef = spectrum.transition(1, 2)
        f_odd_ge = eigenspectrum(
            params.with_ng(ng + 0.5), levels=2
        ).transition(0, 1)
        rows.append(
            ["grid", ng, f_even_ge, f_even_ef, f_odd_ge,
             abs(f_even_ge - f_odd_ge), None, None]
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
        "f_ge_ng0_GHz": rows[0][2],
        "f_ef_ng0_GHz": rows[0][3],
        "anharmonicity_GHz": rows[0][3] - rows[0][2],
        "eps_ge_GHz": eps_ge,
        "eps_ef_GHz": eps_ef,
        "chi_MHz": chi,
        "resonator_dispersion_kHz": pull,
    }
    rows.append(["summary", None, None, None, None, None, eps_ge, eps_ef])

    header = [
        "kind", "ng", "f_ge_GHz", "f_ef_GHz", "f_ge_odd_GHz",
        "parity_splitting_GHz", "eps_ge_GHz", "eps_ef_GHz",
    ]
    out_dir = args.out
    if args.format == "json":
        grid = [
            {
                "ng": row[1],
                "f_ge_GHz": row[2],
                "f_ef_GHz": row[3],
                "f_ge_odd_GHz": row[4],
                "parity_splitting_GHz": row[5],
            }
            for row in rows
            if row[0] == "grid"
        ]
        document = {
            "config": config.name,
            "config_hash": config.source_hash,
            "grid": grid,
            "summary": summary,
        }
        _write_or_print(_dump_json(document), out_dir, "spectrum.json")
    else:
        _write_or_print(_csv_table(header, rows), out_dir, "spectrum.csv")
        if out_dir is None:
            for key, value in summary.items():
                sys.stdout.write(f"# {key} = {_fmt(value)}\n")

    if args.svg:
        grid_rows = [row for row in rows if row[0] == "grid"]
        ngs = [row[1] for row in grid_rows]
        svg = svgplot.line_plot(
            [
                (ngs, [row[2] for row in grid_rows], svgplot.color_for(0)),
                (ngs, [row[4] for row in grid_rows], svgplot.color_for(2)),
            ],
            x_label="offset charge ng",
            y_label="f_ge (GHz)",
            title=f"{config.name} parity branches",
        )
        (out_dir / "spectrum.svg").write_text(svg)
    return 0


# ---------------------------------------------------------------------- qp


def _cmd_qp(args) -> int:
    config = load_device_config(args.config)
    env = config.env
    profile = config.profile
    params = config.params
    delta_k = profile.junction_delta_k
    delta_ghz = kelvin_to_ghz(delta_k)
    delta_ev = kelvin_to_ev(delta_k)
    spectrum = eigenspectrum(params, levels=2)
    f_ge = spectrum.transition(0, 1)

    temperatures = np.linspace(args.t_min, args.t_max, args.t_points)
    grid_rows = []
    for t_kelvin in temperatures:
        x_total = thermal_qp_fraction(t_kelvin, delta_k, x_nqp=env.x_nqp)
        gamma1 = nqp_decay_rate(params.EJ, params.EC, f_ge, delta_ghz, x_total)
        parity = parity_rate_model(profile, env, t_kelvin=t_kelvin)
        grid_rows.append(
            [t_kelvin, x_total, gamma1,
             1e6 / gamma1 if gamma1 > 0 else None, parity]
        )

    crossover = crossover_temperature(env.x_nqp, delta_k)
    summary: dict = {
        "config": config.name,
        "config_hash": config.source_hash,
        "delta_junction_K": delta_k,
        "delta_junction_GHz": delta_ghz,
        "f_ge_GHz": f_ge,
        "x_nqp": env.x_nqp,
        "crossover_K": crossover,
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

    header = ["T_K", "x_qp", "gamma1_per_s", "T1_us", "parity_rate_per_s"]
    out_dir = args.out
    if args.format == "json":
        document = {
            "grid": [dict(zip(header, row)) for row in grid_rows],
            "summary": summary,
        }
        _write_or_print(_dump_json(document), out_dir, "qp.json")
    else:
        summary_text = _csv_table(
            ["key", "value"], [[key, value] for key, value in summary.items()]
        )
        grid_text = _csv_table(header, grid_rows)
        if out_dir is None:
            sys.stdout.write(summary_text + "\n" + grid_text)
        else:
            (out_dir / "qp_summary.csv").write_text(summary_text)
            (out_dir / "qp_grid.csv").write_text(grid_text)

    if args.svg:
        svg = svgplot.line_plot(
            [
                (
                    [row[0] for row in grid_rows],
                    [np.log10(row[2]) for row in grid_rows],
                    svgplot.color_for(0),
                ),
                (
                    [row[0] for row in grid_rows],
                    [np.log10(max(row[4], 1e-30)) for row in grid_rows],
                    svgplot.color_for(2),
                ),
            ],
            x_label="temperature (K)",
            y_label="log10 rate (1/s)",
            title=f"{config.name} qp rates",
        )
        (out_dir / "qp.svg").write_text(svg)
    return 0


# -------------------------------------------------------------- parity-sim


def _cmd_parity_sim(args) -> int:
    config = load_device_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    settings = config.scan
    duration = args.duration

    parity_trace = simulate_parity(
        config.noise.gamma_parity_per_s, duration, seed=seed
    )
    charge_trace = simulate_offset_charge(config.noise, duration, seed=seed + 1)
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

    peak_rows = []
    for index, (start, peaks) in enumerate(
        zip(scan.pixel_starts_s, estimate.peaks)
    ):
        positions = list(peaks.positions_ghz) + [None, None]
        peak_rows.append([index, start, peaks.count, positions[0], positions[1]])

    metadata = scan.metadata()
    metadata.update(
        {
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
    )

    out_dir = args.out
    if args.format == "json":
        document = dict(metadata)
        document["peaks"] = [
            {
                "pixel": row[0],
                "time_s": row[1],
                "count": row[2],
                "f1_GHz": row[3],
                "f2_GHz": row[4],
            }
            for row in peak_rows
        ]
        _write_or_print(_dump_json(document), out_dir, "scan_meta.json")
    else:
        header = ["time_s"] + [
            f"f_{_fmt(freq)}" for freq in scan.frequencies_ghz
        ]
        rows = [
            [start] + list(scan.amplitudes[index])
            for index, start in enumerate(scan.pixel_starts_s)
        ]
        (out_dir / "scan.csv").write_text(_csv_table(header, rows))
        (out_dir / "peaks.csv").write_text(
            _csv_table(
                ["pixel", "time_s", "count", "f1_GHz", "f2_GHz"], peak_rows
            )
        )
        (out_dir / "scan_meta.json").write_text(_dump_json(metadata))

    if args.svg:
        svg = svgplot.heatmap(
            scan.amplitudes.T,
            x_values=scan.frequencies_ghz,
            y_values=scan.pixel_starts_s,
            x_label="frequency (GHz)",
            y_label="time (s)",
            title=f"{config.name} parity scan",
        )
        (out_dir / "scan.svg").write_text(svg)

    sys.stdout.write(estimate.describe() + "\n")
    return 0


# --------------------------------------------------------------------- fit


def _cmd_fit(args) -> int:
    config = load_device_config(args.config)
    if args.kind == "t1":
        data = dataseries_from_csv(args.data, kind="t1")
        result = fit_t1_vs_temperature(data)
        fitted = [result.values[k] for k in result.param_names]

        def model_fn(t_kelvin):
            return t1_rate_model(t_kelvin, *fitted)

    else:
        data = dataseries_from_csv(args.data, kind="t2star")
        chi, kappa = _resolve_chi_kappa(config)
        if args.t1_data is not None:
            t1_series = dataseries_from_csv(args.t1_data, kind="t1")
            t1_result = fit_t1_vs_temperature(t1_series)
            t1_params = [t1_result.values[k] for k in t1_result.param_names]

            def t1_model(t_kelvin: float) -> float:
                return 1.0 / float(t1_rate_model(t_kelvin, *t1_params))

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
        t2_params = [result.values[k] for k in result.param_names]

        def model_fn(t_kelvin):
            return t2_rate_model(
                t_kelvin, t2_params[0], t2_params[1], chi, kappa,
                config.cavity.nu_r_ghz, t1_model,
            )

    report = result.to_report()
    report["config"] = config.name
    report["config_hash"] = config.source_hash
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

    model_rates = model_fn(data.t_kelvin)
    rates, rate_sigmas = data.rates()
    if rate_sigmas is None:
        rate_sigmas = np.full(len(data), np.nan)
    residual_rows = [
        [t, rate, model, rate - model, sigma]
        for t, rate, model, sigma in zip(
            data.t_kelvin, rates, model_rates, rate_sigmas
        )
    ]

    out_dir = args.out
    stem = f"fit_{args.kind}"
    if args.format == "json":
        document = dict(report)
        document["residuals"] = [
            dict(
                zip(
                    ["T_K", "rate_per_s", "model_per_s", "residual_per_s",
                     "sigma_per_s"],
                    row,
                )
            )
            for row in residual_rows
        ]
        _write_or_print(_dump_json(document), out_dir, f"{stem}.json")
    else:
        lines = [f"model = {report['model']}\n"]
        for name in result.param_names:
            sigma = report["sigmas"][name]
            sigma_text = _fmt(sigma) if np.isfinite(sigma) else "n/a"
            lines.append(
                f"{name} = {_fmt(report['params'][name])} +- {sigma_text}\n"
            )
        for key, value in report["derived"].items():
            lines.append(f"{key} = {_fmt(value)}\n")
        lines.append(f"ssr = {_fmt(report['ssr'])}\n")
        lines.append(f"iterations = {report['iterations']}\n")
        lines.append(f"n_points = {report['n_points']}\n")
        text = "".join(lines)
        residual_text = _csv_table(
            ["T_K", "rate_per_s", "model_per_s", "residual_per_s",
             "sigma_per_s"],
            residual_rows,
        )
        if out_dir is None:
            sys.stdout.write(text)
        else:
            (out_dir / f"{stem}.txt").write_text(text)
            (out_dir / f"{stem}_residuals.csv").write_text(residual_text)

    if args.svg:
        t_fine = np.linspace(float(data.t_kelvin.min()),
                             float(data.t_kelvin.max()), 200)
        svg = svgplot.line_plot(
            [
                (data.t_kelvin, rates, svgplot.color_for(0)),
                (t_fine, model_fn(t_fine), svgplot.color_for(2)),
            ],
            x_label="temperature (K)",
            y_label="rate (1/s)",
            title=f"{config.name} {args.kind} fit",
        )
        (out_dir / f"{stem}.svg").write_text(svg)
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
    parser = argparse.ArgumentParser(
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
        "--ng-points", type=int, default=26,
        help="offset-charge grid points on [0, 0.5] (default 26)",
    )
    spectrum.set_defaults(func=_cmd_spectrum)

    qp = subparsers.add_parser(
        "qp", help="quasiparticle rates and gap-profile verdicts"
    )
    _add_common(qp)
    qp.add_argument("--t-min", type=float, default=0.02,
                    help="grid start in K (default 0.02)")
    qp.add_argument("--t-max", type=float, default=0.4,
                    help="grid end in K (default 0.4)")
    qp.add_argument("--t-points", type=int, default=39,
                    help="grid size (default 39)")
    qp.set_defaults(func=_cmd_qp)

    parity = subparsers.add_parser(
        "parity-sim", help="synthesize and grade a parity-switching scan"
    )
    _add_common(parity)
    parity.add_argument(
        "--duration", type=float, default=10.0,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _prepare_out(args)
        return args.func(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except QpgapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
