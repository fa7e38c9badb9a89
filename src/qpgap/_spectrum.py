"""The ``spectrum`` command: parity branches and charge dispersion
over offset charge, and the dispersive shift."""

from __future__ import annotations

import sys

import numpy as np

from ._output import _csv_table, _dump_json, _emit, _fmt, _plot, _records
from .config import DeviceConfig
from .errors import NearResonanceError
from .transmon import charge_dispersion, eigenspectrum, resonator_dispersion


_SPECTRUM_GRID = [
    "ng", "f_ge_GHz", "f_ef_GHz", "f_ge_odd_GHz", "parity_splitting_GHz",
]


def run(args, config: DeviceConfig) -> int:
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
        chi, _ = config.chi_kappa_mhz()
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


