"""The ``fit`` command: T1(T) and T2*(T) fits and their residuals."""

from __future__ import annotations

import numpy as np

from ._output import _csv_table, _dump_json, _emit, _fmt, _plot, _records
from .config import DeviceConfig
from .errors import ConfigError
from .fitting import dataseries_from_csv, fit_t1_vs_temperature


_RESIDUALS = [
    "T_K", "rate_per_s", "model_per_s", "residual_per_s", "sigma_per_s",
]


def run(args, config: DeviceConfig) -> int:
    if args.kind == "t1":
        data = dataseries_from_csv(args.data, kind="t1")
        result = fit_t1_vs_temperature(data)
    else:
        # the T2* model is compiled for a t2 fit alone
        from ._dephasing import fit_t2_vs_temperature, pure_dephasing_from_echo

        data = dataseries_from_csv(args.data, kind="t2star")
        chi, kappa = config.chi_kappa_mhz()
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


