"""The ``qp`` command: quasiparticle rates over temperature and the gap
profile's barrier and trap verdicts."""

from __future__ import annotations

import numpy as np

from ._output import _csv_table, _dump_json, _emit, _plot, _records
from .config import DeviceConfig
from .quasiparticles import (
    barrier_adequate, diffusion_length, nqp_decay_rate, parity_rate_model,
    trap_adequate, volume_density, x_qp_from_rate,
)
from .thermal import thermal_crossover, thermal_qp_fraction
from .transmon import eigenspectrum
from .units import kelvin_to_ev, kelvin_to_ghz


_QP_GRID = ["T_K", "x_qp", "gamma1_per_s", "T1_us", "parity_rate_per_s"]


def run(args, config: DeviceConfig) -> int:
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


